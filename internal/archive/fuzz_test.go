package archive

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"enviromic/internal/flash"
)

// FuzzDecodeFrames drives the decoder behind POST /ingest and the
// /repl/delta stream with arbitrary bodies. It must never panic, and any
// body it accepts must survive a re-encode: decode → EncodeFrames →
// decode yields the same chunks. Seeds are a valid stream plus torn and
// bit-flipped copies of it.
func FuzzDecodeFrames(f *testing.F) {
	var chunks []*flash.Chunk
	for i := 0; i < 4; i++ {
		c := mkChunk(flash.FileID(i%2+1), int32(i), uint32(i), float64(i), float64(i)+0.5)
		c.Data = bytes.Repeat([]byte{byte(i)}, i*31%flash.PayloadSize)
		chunks = append(chunks, c)
	}
	frames, err := EncodeFrames(chunks)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(frames)
	for _, cut := range []int{1, frameHeaderSize - 1, frameHeaderSize + 3, len(frames) - 1} {
		f.Add(bytes.Clone(frames[:cut]))
	}
	for _, off := range []int{0, 3, 5, frameHeaderSize + 2, len(frames) - 1} {
		flipped := bytes.Clone(frames)
		flipped[off] ^= 0x10
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := DecodeFrames(bytes.NewReader(body))
		if err != nil {
			return
		}
		again, err := EncodeFrames(got)
		if err != nil {
			t.Fatalf("re-encoding %d decoded chunks: %v", len(got), err)
		}
		back, err := DecodeFrames(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("decoding the re-encoded stream: %v", err)
		}
		if len(back) != len(got) {
			t.Fatalf("round trip kept %d of %d chunks", len(back), len(got))
		}
		for i := range got {
			if !reflect.DeepEqual(*back[i], *got[i]) {
				t.Fatalf("chunk %d changed in the round trip: %+v vs %+v", i, *back[i], *got[i])
			}
		}
	})
}

// FuzzParseReplCursor drives the /repl/delta cursor parser: any cursor it
// accepts must render (String) to a form that parses back equal.
func FuzzParseReplCursor(f *testing.F) {
	for _, s := range []string{"", "0:0", "3:4096,1:7", "1:", ":2", "1:2:3", "1:-5", "+1:+2", "18446744073709551615:9223372036854775807"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cur, err := ParseReplCursor(s)
		if err != nil {
			return
		}
		back, err := ParseReplCursor(cur.String())
		if err != nil {
			t.Fatalf("ParseReplCursor(%q) = %v, but its String %q does not parse: %v", s, cur, cur.String(), err)
		}
		if !reflect.DeepEqual(back, cur) {
			t.Fatalf("ParseReplCursor(%q) = %v, re-parsed as %v", s, cur, back)
		}
	})
}

// FuzzSnapshotLoad writes arbitrary bytes over a small archive's index
// snapshot and opens it. The open must not panic and must list exactly
// what a snapshot-free rescan of the same segment lists: a snapshot that
// fails validation falls back to the rescan. The seed is the archive's
// own shard-000.idx plus truncated and bit-flipped copies of it.
func FuzzSnapshotLoad(f *testing.F) {
	src := f.TempDir()
	s, err := Open(src, Options{Shards: 1})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Ingest(seedChunks(3, 6)); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(src, "shard-000.idx"))
	if err != nil {
		f.Fatal(err)
	}
	clean := openCopy(f, src)
	want := clean.Files()
	clean.crashClose()

	f.Add(snap)
	f.Add([]byte{})
	f.Add(bytes.Clone(snap[:len(snap)/2]))
	for _, off := range []int{0, 16, snapshotHeaderSize + 9, len(snap) - 1} {
		flipped := bytes.Clone(snap)
		flipped[off] ^= 0x20
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		copyArchive(t, src, dir)
		if err := os.WriteFile(filepath.Join(dir, "shard-000.idx"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open over a mutated snapshot: %v", err)
		}
		defer s.crashClose()
		if got := s.Files(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Files() = %+v, rescan lists %+v", got, want)
		}
	})
}

// openCopy opens a snapshot-free copy of the archive at src.
func openCopy(tb testing.TB, src string) *Store {
	tb.Helper()
	dir := tb.TempDir()
	copyArchive(tb, src, dir)
	s, err := Open(dir, Options{NoSnapshots: true})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// copyArchive copies the regular files of archive directory src into dst.
func copyArchive(tb testing.TB, src, dst string) {
	tb.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
}
