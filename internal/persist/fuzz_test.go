package persist

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecode drives arbitrary bytes through the snapshot decoder in
// both modes. The invariants: never panic, never return a snapshot
// alongside an error, copy mode (the ReadFile path) and view mode (the
// mmap path, run over a 64-byte-aligned copy) agree on accept vs reject
// for every input — the property that makes load-mode fallback safe —
// anything accepted must survive a re-encode / re-decode cycle (i.e.
// only self-consistent snapshots are accepted), and a version-1 header
// is never accepted.
func FuzzDecode(f *testing.F) {
	f.Add(encodeBytes(f, tinySnapshot(f)))
	v1, _ := v1TinyFile(f)
	f.Add(v1)
	full := tinySnapshot(f)
	f.Add(encodeBytes(f, &Snapshot{Graph: full.Graph}))
	f.Add(encodeBytes(f, &Snapshot{Train: full.Train}))
	f.Add(encodeBytes(f, &Snapshot{GoldFinger: full.GoldFinger}))
	f.Add([]byte("C2SNAP\r\n"))
	f.Add([]byte{})
	corrupt := encodeBytes(f, full)
	corrupt[len(corrupt)/2] ^= 0x10
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decode(data, false)
		vsnap, verr := decode(data, true)
		if (err == nil) != (verr == nil) {
			t.Fatalf("copy/view modes disagree: copy err=%v, view err=%v", err, verr)
		}
		if (err != nil && snap != nil) || (verr != nil && vsnap != nil) {
			t.Fatal("decode returned a snapshot together with an error")
		}
		if err != nil {
			return
		}
		if len(data) >= 12 && binary.LittleEndian.Uint32(data[8:12]) == 1 {
			t.Fatal("decode accepted a version-1 snapshot")
		}
		if snap == nil || (snap.Graph == nil && snap.Train == nil && snap.GoldFinger == nil) {
			t.Fatal("decode succeeded with an empty snapshot")
		}
		var buf bytes.Buffer
		if err := Encode(&buf, snap); err != nil {
			t.Fatalf("re-encode of an accepted snapshot failed: %v", err)
		}
		again, err := decodeAll(buf.Bytes(), false)
		if err != nil || again == nil {
			t.Fatalf("re-decode of a re-encoded snapshot failed: %v", err)
		}
	})
}
