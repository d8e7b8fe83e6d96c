package lib

import "testing"

func TestTestOnly(t *testing.T) { TestOnly() }
