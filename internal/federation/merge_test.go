package federation

import (
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"testing"
	"testing/quick"

	"enviromic/internal/flash"
)

// splitChunks is a random chunk set split across three stations. Keys
// repeat: the same (file, origin, seq) appears with different payload
// lengths, on the same station or on different ones.
type splitChunks struct {
	union    []*flash.Chunk
	stations [3][]*flash.Chunk
}

func (splitChunks) Generate(r *rand.Rand, size int) reflect.Value {
	var sc splitChunks
	n := 1 + r.Intn(4+size)
	for i := 0; i < n; i++ {
		file := flash.FileID(1 + r.Intn(3))
		origin := int32(1 + r.Intn(3))
		seq := uint32(r.Intn(6))
		// A key's span is fixed; only its payload length varies.
		start := float64(seq)*1.5 + float64(origin)*0.25
		copies := 1 + r.Intn(3)
		for k := 0; k < copies; k++ {
			c := mkChunk(file, origin, seq, start, start+1, r.Intn(24))
			sc.union = append(sc.union, c)
			at := r.Intn(3)
			sc.stations[at] = append(sc.stations[at], c)
		}
	}
	return reflect.ValueOf(sc)
}

// TestMergeMatchesUnionProperty: for random chunk sets split at random
// across three stations, every read route through every station answers
// exactly what one station holding the union answers — status and body,
// byte for byte.
func TestMergeMatchesUnionProperty(t *testing.T) {
	check := func(sc splitChunks) bool {
		return t.Run("", func(t *testing.T) {
			cl := newCluster(t, 3, 0)
			for i, ts := range cl {
				if len(sc.stations[i]) > 0 {
					mustIngest(t, ts.store, sc.stations[i])
				}
			}
			ref := refServer(t, sc.union)
			paths := []string{"/files", "/query", "/query?from=2s&to=5s", "/query?origins=2", "/files/99"}
			for id := 1; id <= 3; id++ {
				for _, route := range []string{"", "/gaps", "/gaps?tolerance=250ms", "/wav"} {
					paths = append(paths, fmt.Sprintf("/files/%d%s", id, route))
				}
			}
			for _, path := range paths {
				rs, _, rb := get(t, ref.URL+path)
				for _, ts := range cl {
					fs, _, fb := get(t, ts.srv.URL+path)
					if fs != rs || string(fb) != string(rb) {
						t.Fatalf("%s via %s: HTTP %d, reference HTTP %d\nfed: %s\nref: %s",
							path, ts.name, fs, rs, fb, rb)
					}
				}
				if rs != http.StatusOK && rs != http.StatusNotFound {
					t.Fatalf("%s: reference HTTP %d", path, rs)
				}
			}
		})
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
