package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/scenario"
)

// checker verifies a run's outputs. A scenario run at its preset's own
// seed must reproduce testdata/golden/<preset>.golden byte for byte (the
// file is read at run time, so an intended re-record is followed). Runs
// of the same scenario and seed must agree with each other, which is the
// only check left for seeds the golden corpus does not pin.
type checker struct {
	root      string
	golden    map[string]string
	seen      map[runKey]string
	attempted int
	failed    int
	first     string
}

type runKey struct {
	name string
	seed int64
}

func newChecker(root string) *checker {
	return &checker{root: root, golden: map[string]string{}, seen: map[runKey]string{}}
}

// fail counts one failed operation.
func (c *checker) fail(format string, args ...any) {
	c.attempted++
	c.failed++
	if c.first == "" {
		c.first = fmt.Sprintf(format, args...)
	}
}

// observe checks one finished scenario run. err is the run's error.
func (c *checker) observe(spec scenario.Spec, d scenario.Digest, err error) {
	if err != nil {
		c.fail("%s seed %d: %v", spec.Name, spec.Seed, err)
		return
	}
	if p, ok := scenario.Get(spec.Name); ok && p.Seed == spec.Seed {
		want, gerr := c.goldenFor(spec.Name)
		if gerr != nil {
			c.fail("%v", gerr)
			return
		}
		if d.GoldenFile() != want {
			c.fail("%s seed %d: digest %s differs from its golden file", spec.Name, spec.Seed, d.Hash)
			return
		}
	}
	c.agree(runKey{spec.Name, spec.Seed}, d.Hash)
}

// agree counts one output that must match every other output of key.
func (c *checker) agree(key runKey, hash string) {
	if prev, ok := c.seen[key]; ok && prev != hash {
		c.fail("%s seed %d: digest %s, an earlier run gave %s", key.name, key.seed, hash, prev)
		return
	}
	c.seen[key] = hash
	c.attempted++
}

func (c *checker) goldenFor(name string) (string, error) {
	if g, ok := c.golden[name]; ok {
		return g, nil
	}
	b, err := os.ReadFile(filepath.Join(c.root, "testdata", "golden", name+".golden"))
	if err != nil {
		return "", fmt.Errorf("golden file for %s: %w", name, err)
	}
	c.golden[name] = string(b)
	return string(b), nil
}
