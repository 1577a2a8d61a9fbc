package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Snapshot file layout:
//
//	[8 bytes magic "PISASNP1"][8 bytes BE index][8 bytes BE payload length]
//	[4 bytes BE CRC32-C of payload][payload]
//
// A snapshot is written to a .tmp sibling, fsynced, then renamed into
// place and the directory fsynced, so a crash at any point leaves
// either the old complete snapshot set or the new one — never a
// half-written file under the final name. The index names the last WAL
// record the payload covers; every record at or below it is
// superseded.
const snapMagic = "PISASNP1"

const snapHeaderLen = 8 + 8 + 8 + 4

// maxSnapshotBytes bounds the payload length accepted from a header,
// guarding recovery against allocating from a corrupt length field.
const maxSnapshotBytes = int64(1) << 33

// snapshotName encodes the covered index.
func snapshotName(index uint64) string {
	return fmt.Sprintf("snap-%016x.snap", index)
}

// writeSnapshot atomically persists one snapshot and returns its final
// path.
func writeSnapshot(dir string, index uint64, payload []byte) (string, error) {
	final := filepath.Join(dir, snapshotName(index))
	hdr := make([]byte, snapHeaderLen)
	copy(hdr, snapMagic)
	binary.BigEndian.PutUint64(hdr[8:16], index)
	binary.BigEndian.PutUint64(hdr[16:24], uint64(len(payload)))
	binary.BigEndian.PutUint32(hdr[24:28], crc32.Checksum(payload, crcTable))
	if err := WriteFileAtomic(final, 0o644, hdr, payload); err != nil {
		return "", fmt.Errorf("store: write snapshot: %w", err)
	}
	return final, nil
}

// WriteFileAtomic writes the concatenated parts to path so that a
// crash at any point leaves either the old file or the complete new
// one under that name: it writes a .tmp sibling, fsyncs it, renames
// it into place and fsyncs the directory. The parts are written in
// turn, never copied into one buffer.
func WriteFileAtomic(path string, perm os.FileMode, parts ...[]byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	err = func() error {
		for _, p := range parts {
			if _, err := f.Write(p); err != nil {
				return err
			}
		}
		return f.Sync()
	}()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// readSnapshot loads and verifies one snapshot file.
func readSnapshot(path string) (payload []byte, index uint64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("store: read snapshot: %w", err)
	}
	if len(data) < snapHeaderLen || string(data[:8]) != snapMagic {
		return nil, 0, fmt.Errorf("store: snapshot %s: bad header", path)
	}
	index = binary.BigEndian.Uint64(data[8:16])
	n := binary.BigEndian.Uint64(data[16:24])
	if int64(n) < 0 || int64(n) > maxSnapshotBytes {
		return nil, 0, fmt.Errorf("store: snapshot %s: impossible payload length %d", path, n)
	}
	if uint64(len(data)-snapHeaderLen) != n {
		return nil, 0, fmt.Errorf("store: snapshot %s: payload is %d bytes, header says %d",
			path, len(data)-snapHeaderLen, n)
	}
	payload = data[snapHeaderLen:]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(data[24:28]) {
		return nil, 0, fmt.Errorf("store: snapshot %s: checksum mismatch", path)
	}
	return payload, index, nil
}

// listSnapshots returns snapshot files ordered newest (highest index)
// first.
func listSnapshots(entries []os.DirEntry) []segmentRef {
	var snaps []segmentRef
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if idx, ok := parseSeqName(e.Name(), "snap-", ".snap"); ok {
			snaps = append(snaps, segmentRef{name: e.Name(), first: idx})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].first > snaps[j].first })
	return snaps
}

// syncDir fsyncs a directory so renames and unlinks within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}
