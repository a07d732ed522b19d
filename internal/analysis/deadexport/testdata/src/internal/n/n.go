package n

// Dead is called only by n_test.go; a narrowed load must not say so.
func Dead() {}
