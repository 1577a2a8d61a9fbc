package lib_test

import (
	"testing"

	"fixture/internal/lib"
)

func TestLib(t *testing.T) {
	if lib.OwnTestOnly()+lib.Helper() != 8 {
		t.Fatal("sum")
	}
}
