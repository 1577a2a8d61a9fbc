package other

import (
	"testing"

	"fixture/internal/lib"
)

func TestTwice(t *testing.T) {
	if Twice(lib.ReadByOtherTest()) != 4 {
		t.Fatal("Twice")
	}
}
