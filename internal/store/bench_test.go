package store

import (
	"crypto/rand"
	"fmt"
	"testing"
)

// Paper-scale sizing: one PU update record carries C = 100 channel
// ciphertexts of 2x2048 bits plus framing — about 52 KB of gob. The
// benchmarks use a synthetic payload of that magnitude so append,
// snapshot and replay costs reflect the production record size.
const benchRecordBytes = 52 << 10

// benchSnapshotBytes approximates a full paper-scale SDC snapshot:
// the 100 x 600 budget matrix at 512 bytes per ciphertext plus the
// stored PU columns — tens of megabytes; 16 MiB keeps the benchmark
// honest without thrashing CI disks.
const benchSnapshotBytes = 16 << 20

func benchPayload(b *testing.B, n int) []byte {
	b.Helper()
	p := make([]byte, n)
	if _, err := rand.Read(p); err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkStore_Append measures one acknowledged append of a
// paper-scale record: frame, write and fsync.
func BenchmarkStore_Append(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	payload := benchPayload(b, benchRecordBytes)
	b.SetBytes(benchRecordBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(1, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStore_Snapshot(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	state := benchPayload(b, benchSnapshotBytes)
	b.SetBytes(benchSnapshotBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(1, []byte("tick")); err != nil {
			b.Fatal(err)
		}
		if err := s.SaveSnapshot(state); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStore_Replay measures Open (recovery) against WALs of
// increasing length — the recovery-time-vs-WAL-length curve recorded
// in EXPERIMENTS.md.
func BenchmarkStore_Replay(b *testing.B) {
	for _, records := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("records-%d", records), func(b *testing.B) {
			dir := b.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			payload := benchPayload(b, benchRecordBytes)
			for i := 0; i < records; i++ {
				if _, err := s.Append(1, payload); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(records) * benchRecordBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := Open(dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if got := len(r.Tail()); got != records {
					b.Fatalf("replayed %d, want %d", got, records)
				}
				r.Close()
			}
		})
	}
}
