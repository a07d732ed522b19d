package main

import (
	"testing"

	"internal/a"
)

func TestBench(t *testing.T) { a.BenchOnly() }
