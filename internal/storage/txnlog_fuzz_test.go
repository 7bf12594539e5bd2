package storage

import (
	"bytes"
	"testing"

	"pathdb/internal/vdisk"
)

// FuzzDecodeTxnLog throws arbitrary bytes at the two decoders recovery runs
// on log payloads: the checkpoint state and the commit-group record. The
// chain layer has verified page checksums by then, but a payload is still
// whatever the last durable write left, so both decoders must tolerate
// every input. Properties checked: never panic, and anything accepted
// re-encodes to exactly the bytes it was parsed from.
func FuzzDecodeTxnLog(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeTxnState(&TxnState{Map: map[vdisk.PageID]vdisk.PageID{}}))
	f.Add(encodeTxnState(&TxnState{
		Map:    map[vdisk.PageID]vdisk.PageID{3: 40, 9: 41},
		Extras: []vdisk.PageID{30, 31},
		Free:   []vdisk.PageID{12, 7},
	}))
	f.Add(encodeGroupRecord(GroupRecord{
		Commits: 2,
		Deltas:  []MapDelta{{Logical: 3, Physical: 50}, {Logical: 4, Physical: 51}},
		Fresh:   []vdisk.PageID{52},
		Freed:   []vdisk.PageID{40},
	}))
	// A count far beyond the buffer.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 0, 0})

	f.Fuzz(func(t *testing.T, raw []byte) {
		if st, err := decodeTxnState(raw); err == nil {
			if enc := encodeTxnState(st); !bytes.Equal(enc, raw) {
				t.Fatalf("checkpoint round trip:\n got % x\nwant % x", enc, raw)
			}
		}
		const epoch = 7
		if g, ok := decodeGroupRecord(epoch, raw); ok {
			if g.Epoch != epoch {
				t.Fatalf("group epoch = %d, want %d", g.Epoch, epoch)
			}
			if enc := encodeGroupRecord(g); !bytes.Equal(enc, raw) {
				t.Fatalf("group round trip:\n got % x\nwant % x", enc, raw)
			}
		}
	})
}
