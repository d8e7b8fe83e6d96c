package lib

import "testing"

func TestTestOnly(t *testing.T) {
	TestOnly()
	testHelper()
	_ = Opts{TestSet: 1}
}
