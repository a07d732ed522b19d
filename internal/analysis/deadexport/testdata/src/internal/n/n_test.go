package n

import "testing"

func TestDead(t *testing.T) { Dead() }
