package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"streamsim/internal/search"
)

// referencesJSON holds the committed output digests and logical
// reference counts, produced by -write-refs.
//
//go:embed refs.json
var referencesJSON []byte

// references is the decoded reference file. Keys are refKey + "/" +
// output name for digests and refKey for reference counts.
type references struct {
	Digests map[string]string `json:"digests"`
	Refs    map[string]int64  `json:"refs"`
}

func loadReferences() (references, error) {
	var r references
	if err := json.Unmarshal(referencesJSON, &r); err != nil {
		return r, fmt.Errorf("refs.json: %w", err)
	}
	return r, nil
}

// digest is the SHA-256 of an output's text.
func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// searchDigest digests a search's answer: its Pareto front, winner and
// evaluation count. Run statistics (refs simulated, memo hits) are left
// out: they legitimately differ between the incremental search and its
// Scratch oracle.
func searchDigest(r *search.Result) (string, error) {
	b, err := json.Marshal(struct {
		Front  []search.Eval `json:"front"`
		Winner *search.Eval  `json:"winner"`
		Evals  int           `json:"evals"`
	}{r.Front, r.Winner, r.Evals})
	if err != nil {
		return "", err
	}
	return digest(string(b)), nil
}

// check counts outputs compared against their references.
type check struct {
	attempted, failed int
	source            string
	mismatches        []string
}

// compare counts one output; an output with no reference fails.
func (c *check) compare(o output, want map[string]string) {
	c.attempted++
	w, ok := want[o.name]
	if ok && w == o.digest {
		return
	}
	c.failed++
	if !ok {
		w = "none"
	}
	c.mismatches = append(c.mismatches, fmt.Sprintf("%s: got %s want %s", o.name, o.digest, w))
}

// failFrac is the share of checked outputs whose digest differs.
func (c *check) failFrac() float64 {
	if c.attempted == 0 {
		return 1
	}
	return float64(c.failed) / float64(c.attempted)
}

// writeReferences recomputes every digest and reference count at the
// bench and smoke sizings and writes them to path. Experiments run
// exactly (Options.Shards 1); each design-search digest must equal its
// Scratch oracle's or nothing is written.
func writeReferences(ctx context.Context, path string) error {
	out := references{Digests: map[string]string{}, Refs: map[string]int64{}}
	for _, w := range workloads {
		for _, p := range []params{benchParams[w.name], smokeParams[w.name]} {
			j, err := prepare(w, p, defaultSeed)
			if err != nil {
				return err
			}
			it, err := j.iterate(ctx, nil, nil)
			if err != nil {
				return err
			}
			for _, o := range it.outputs {
				out.Digests[j.key+"/"+o.name] = o.digest
			}
			if w.search {
				d, err := oracleDigest(ctx, j.spec)
				if err != nil {
					return err
				}
				if d != it.outputs[0].digest {
					return fmt.Errorf("%s: incremental search digest %s differs from Scratch oracle %s", j.key, it.outputs[0].digest, d)
				}
				continue
			}
			out.Refs[j.key] = it.replayed
			fmt.Fprintf(os.Stderr, "%s: %.2fs, %d refs\n", j.key, it.wall.Seconds(), it.replayed)
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
