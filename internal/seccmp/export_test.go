package seccmp

import (
	"fmt"

	"pisa/internal/paillier"
)

// DecryptBit opens a result bit with the helper's key.
func DecryptBit(h *Helper, ct *paillier.Ciphertext) (int, error) {
	v, err := h.key.DecryptInt(ct)
	if err != nil {
		return 0, err
	}
	if v != 0 && v != 1 {
		return 0, fmt.Errorf("seccmp: result %d is not a bit", v)
	}
	return int(v), nil
}
