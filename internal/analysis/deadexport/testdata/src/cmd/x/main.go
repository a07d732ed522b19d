package main

import (
	"fmt"

	"internal/a"
	"internal/b"
)

func main() {
	a.Live()
	b.Call(a.T{})
	fmt.Println(a.T{})
}
