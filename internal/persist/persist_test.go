package persist

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"c2knn/internal/bruteforce"
	"c2knn/internal/dataset"
	"c2knn/internal/goldfinger"
	"c2knn/internal/knng"
	"c2knn/internal/synth"
)

// ml1MSnapshot builds a full snapshot — graph, dataset, fingerprints —
// over the ml1M synthetic preset: the losslessness acceptance check of
// the serving layer.
func ml1MSnapshot(tb testing.TB) *Snapshot {
	tb.Helper()
	d := synth.Generate(synth.ML1M().Scale(0.1))
	gf := goldfinger.MustNew(d, 256, 0x60fd)
	g := bruteforce.Build(d.NumUsers(), 10, gf, 4)
	return &Snapshot{Graph: g.Freeze(), Train: d, GoldFinger: gf}
}

// tinySnapshot is a hand-built snapshot small enough that exhaustive
// corruption sweeps (every truncation length, every byte flipped) stay
// cheap.
func tinySnapshot(tb testing.TB) *Snapshot {
	tb.Helper()
	d := dataset.New("tiny", [][]int32{
		{0, 2, 4},
		{1, 2, 3},
		{0, 1, 4},
		{3},
	}, 5)
	gf := goldfinger.MustNew(d, 64, 0x60fd)
	g := knng.New(d.NumUsers(), 2)
	rng := rand.New(rand.NewSource(9))
	knng.FillRandom(g.Lists, rng, func(u, v int) float64 { return rng.Float64() })
	return &Snapshot{Graph: g.Freeze(), Train: d, GoldFinger: gf}
}

func encodeBytes(tb testing.TB, s *Snapshot) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		tb.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func sameFrozen(tb testing.TB, got, want *knng.Frozen) {
	tb.Helper()
	if got.K != want.K || got.NumUsers() != want.NumUsers() || got.NumEdges() != want.NumEdges() {
		tb.Fatalf("frozen shape mismatch: got k=%d n=%d m=%d, want k=%d n=%d m=%d",
			got.K, got.NumUsers(), got.NumEdges(), want.K, want.NumUsers(), want.NumEdges())
	}
	for u := 0; u < want.NumUsers(); u++ {
		gids, gsims := got.Neighbors(int32(u))
		wids, wsims := want.Neighbors(int32(u))
		if len(gids) != len(wids) {
			tb.Fatalf("user %d: degree %d, want %d", u, len(gids), len(wids))
		}
		for i := range wids {
			if gids[i] != wids[i] || gsims[i] != wsims[i] {
				tb.Fatalf("user %d edge %d: (%d, %v), want (%d, %v)",
					u, i, gids[i], gsims[i], wids[i], wsims[i])
			}
		}
	}
}

func TestRoundTripLosslessML1M(t *testing.T) {
	want := ml1MSnapshot(t)
	got, err := decodeAll(encodeBytes(t, want), false)
	if err != nil {
		t.Fatalf("decodeAll: %v", err)
	}
	sameFrozen(t, got.Graph, want.Graph)
	if got.Train.Name != want.Train.Name || got.Train.NumItems != want.Train.NumItems {
		t.Fatalf("dataset header mismatch: %q/%d vs %q/%d",
			got.Train.Name, got.Train.NumItems, want.Train.Name, want.Train.NumItems)
	}
	if got.Train.NumUsers() != want.Train.NumUsers() {
		t.Fatalf("dataset users: %d, want %d", got.Train.NumUsers(), want.Train.NumUsers())
	}
	for u, p := range want.Train.Profiles {
		gp := got.Train.Profiles[u]
		if len(gp) != len(p) {
			t.Fatalf("user %d profile length %d, want %d", u, len(gp), len(p))
		}
		for i := range p {
			if gp[i] != p[i] {
				t.Fatalf("user %d item %d: %d, want %d", u, i, gp[i], p[i])
			}
		}
	}
	if got.GoldFinger.Bits() != want.GoldFinger.Bits() {
		t.Fatalf("fingerprint width %d, want %d", got.GoldFinger.Bits(), want.GoldFinger.Bits())
	}
	gs, ws := got.GoldFinger.Signatures(), want.GoldFinger.Signatures()
	if len(gs) != len(ws) {
		t.Fatalf("signature block %d words, want %d", len(gs), len(ws))
	}
	for i := range ws {
		if gs[i] != ws[i] {
			t.Fatalf("signature word %d: %#x, want %#x", i, gs[i], ws[i])
		}
	}
	// The reconstructed provider serves identical similarity estimates.
	n := int32(want.Train.NumUsers())
	for u := int32(0); u < n; u += 7 {
		v := (u + 13) % n
		if got.GoldFinger.Sim(u, v) != want.GoldFinger.Sim(u, v) {
			t.Fatalf("Sim(%d,%d) differs after round trip", u, v)
		}
	}
}

func TestRoundTripFile(t *testing.T) {
	want := tinySnapshot(t)
	path := filepath.Join(t.TempDir(), "snap.c2")
	if err := WriteFile(path, want); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	sameFrozen(t, got.Graph, want.Graph)
}

func TestRoundTripPartialSnapshots(t *testing.T) {
	full := tinySnapshot(t)
	cases := []*Snapshot{
		{Graph: full.Graph},
		{Train: full.Train},
		{Graph: full.Graph, Train: full.Train},
		{GoldFinger: full.GoldFinger},
	}
	for i, s := range cases {
		got, err := decodeBothPaths(t, encodeBytes(t, s))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if (got.Graph != nil) != (s.Graph != nil) ||
			(got.Train != nil) != (s.Train != nil) ||
			(got.GoldFinger != nil) != (s.GoldFinger != nil) {
			t.Fatalf("case %d: presence changed across round trip", i)
		}
	}
}

func TestEncodeRejectsEmptyAndInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, nil); err == nil {
		t.Error("Encode(nil) succeeded")
	}
	if err := Encode(&buf, &Snapshot{}); err == nil {
		t.Error("Encode(empty) succeeded")
	}
	bad := &knng.Frozen{K: 1, Offsets: []int64{0, 5}, IDs: []int32{9}, Sims: []float32{1}}
	if err := Encode(&buf, &Snapshot{Graph: bad}); err == nil {
		t.Error("Encode accepted a structurally invalid graph")
	}
}

// TestDecodeTruncated: every strict prefix of a valid snapshot must fail
// with an error, never panic, never return a snapshot — in both decode
// modes.
func TestDecodeTruncated(t *testing.T) {
	data := encodeBytes(t, tinySnapshot(t))
	forEachMode(t, func(t *testing.T, view bool) {
		for cut := 0; cut < len(data); cut++ {
			snap, err := decode(data[:cut], view)
			if err == nil || snap != nil {
				t.Fatalf("truncation at %d/%d bytes: snap=%v err=%v", cut, len(data), snap, err)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation at %d: error %v not tagged ErrCorrupt", cut, err)
			}
		}
	})
}

// TestDecodeBitFlips: flipping any single byte anywhere in the snapshot
// must be detected in both decode modes (magic, version, counts,
// lengths by framing checks; payload bytes by CRC-32C, which catches
// all single-byte errors) before a snapshot built on poisoned bytes
// escapes.
func TestDecodeBitFlips(t *testing.T) {
	data := encodeBytes(t, tinySnapshot(t))
	forEachMode(t, func(t *testing.T, view bool) {
		for i := range data {
			snap, err := decode(patchRaw(data, i), view)
			if err == nil || snap != nil {
				t.Fatalf("flip at byte %d/%d undetected: snap=%v err=%v", i, len(data), snap, err)
			}
		}
	})
}

// TestDecodeVersionSkew: a future version and the retired version-1
// layout are both refused with ErrVersion — by either decode mode and
// through every file load mode — rather than read as corruption or
// handed to the copy fallback.
func TestDecodeVersionSkew(t *testing.T) {
	future := encodeBytes(t, tinySnapshot(t))
	future[8] = Version + 1 // version field, little-endian
	v1, _ := v1TinyFile(t)
	for name, data := range map[string][]byte{"future": future, "v1": v1} {
		t.Run(name, func(t *testing.T) {
			forEachMode(t, func(t *testing.T, view bool) {
				if _, err := decode(data, view); !errors.Is(err, ErrVersion) {
					t.Fatalf("decode error = %v, want ErrVersion", err)
				}
			})
			path := filepath.Join(t.TempDir(), name+".c2")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadFile(path); !errors.Is(err, ErrVersion) {
				t.Fatalf("ReadFile error = %v, want ErrVersion", err)
			}
			wantMap := ErrVersion
			if !mmapSupported || !hostLittleEndian {
				wantMap = ErrMapUnavailable
			}
			if _, err := MapFile(path); !errors.Is(err, wantMap) {
				t.Fatalf("MapFile error = %v, want %v", err, wantMap)
			}
			if _, err := LoadFileMode(path, LoadAuto); !errors.Is(err, ErrVersion) {
				t.Fatalf("LoadFileMode(auto) error = %v, want ErrVersion", err)
			}
		})
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	data := append(encodeBytes(t, tinySnapshot(t)), 0xFF)
	if snap, err := decodeBothPaths(t, data); err == nil || snap != nil {
		t.Fatalf("trailing garbage undetected: snap=%v err=%v", snap, err)
	}
}

func TestDecodeEmptyAndGarbageInputs(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		[]byte("C2SNAP"),
		[]byte("definitely not a snapshot file, just some text"),
		bytes.Repeat([]byte{0}, 64),
	}
	for i, in := range inputs {
		if snap, err := decodeBothPaths(t, in); err == nil || snap != nil {
			t.Fatalf("input %d accepted: snap=%v err=%v", i, snap, err)
		}
	}
}

// TestDecodeLyingLength: a section header claiming a huge payload over a
// truncated image must fail on the bounds check, before any slicing.
func TestDecodeLyingLength(t *testing.T) {
	data := encodeBytes(t, tinySnapshot(t))
	// Section 1 header starts at offset 16; its length field at 16+4.
	// Claim ~1 GiB.
	data[20], data[21], data[22], data[23] = 0, 0, 0, 0x40
	if snap, err := decodeBothPaths(t, data[:64]); err == nil || snap != nil {
		t.Fatalf("lying length undetected: snap=%v err=%v", snap, err)
	}
}

func TestDecodeMismatchedUserCounts(t *testing.T) {
	full := tinySnapshot(t)
	other := dataset.New("other", [][]int32{{0}, {1}}, 2)
	// Encode refuses to write mismatched sections, so splice two
	// single-section snapshots together by hand: shared header with
	// count=2, then each snapshot's section bytes.
	if err := Encode(bytes.NewBuffer(nil), &Snapshot{Graph: full.Graph, Train: other}); err == nil {
		t.Fatal("Encode accepted mismatched graph/dataset user counts")
	}
	a := encodeBytes(t, &Snapshot{Graph: full.Graph})
	b := encodeBytes(t, &Snapshot{Train: other})
	data := append([]byte{}, a[:12]...) // magic + version
	data = append(data, 2, 0, 0, 0)     // section count 2
	data = append(data, a[16:]...)      // graph section
	data = append(data, b[16:]...)      // dataset section
	if snap, err := decodeBothPaths(t, data); err == nil || snap != nil {
		t.Fatalf("mismatched user counts undetected: snap=%v err=%v", snap, err)
	}
}

func BenchmarkDecodeML1M(b *testing.B) {
	data := encodeBytes(b, ml1MSnapshot(b))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeAll(data, false); err != nil {
			b.Fatal(err)
		}
	}
}
