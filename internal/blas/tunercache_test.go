package blas

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestTunerCacheColdThenWarm(t *testing.T) {
	dir := t.TempDir()

	cold, err := OpenTunerCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Loaded() != 0 || cold.Len() != 0 {
		t.Fatalf("cold cache loaded=%d len=%d, want 0/0", cold.Loaded(), cold.Len())
	}
	cold.Store("conv|a", "im2col")
	cold.Store("conv|b", "int8")
	wrote, err := cold.Save()
	if err != nil {
		t.Fatal(err)
	}
	if !wrote {
		t.Fatal("dirty cache must write")
	}

	warm, err := OpenTunerCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Loaded() != 2 {
		t.Fatalf("warm cache loaded=%d, want 2", warm.Loaded())
	}
	if v, ok := warm.Lookup("conv|a"); !ok || v != "im2col" {
		t.Fatalf("Lookup(conv|a) = %q/%v", v, ok)
	}
	// A clean warm cache must not rewrite the file.
	if wrote, err := warm.Save(); err != nil || wrote {
		t.Fatalf("clean Save = %v/%v, want false/nil", wrote, err)
	}
}

func TestTunerCacheStoreSameValueStaysClean(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenTunerCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Store("k", "v")
	if _, err := c.Save(); err != nil {
		t.Fatal(err)
	}
	// Re-storing the identical verdict must not re-dirty.
	c.Store("k", "v")
	if wrote, _ := c.Save(); wrote {
		t.Fatal("identical Store must not dirty the cache")
	}
}

func TestTunerCacheCorruptFileFallsBack(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, tunerCacheFileName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenTunerCache(dir)
	if err != nil {
		t.Fatalf("corrupt cache must not error: %v", err)
	}
	if c.Loaded() != 0 {
		t.Fatalf("corrupt cache loaded=%d, want 0", c.Loaded())
	}
	// The process can still tune and persist over the wreck.
	c.Store("k", "v")
	if wrote, err := c.Save(); err != nil || !wrote {
		t.Fatalf("Save over corrupt file = %v/%v", wrote, err)
	}
	fresh, err := OpenTunerCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Loaded() != 1 {
		t.Fatalf("recovered cache loaded=%d, want 1", fresh.Loaded())
	}
}

func TestTunerCacheForeignProvenanceDiscarded(t *testing.T) {
	for _, mutate := range []struct {
		name string
		edit func(s string) string
	}{
		{"version", func(s string) string {
			return strings.Replace(s, fmt.Sprintf(`"version": %d`, tunerCacheVersion), `"version": 999`, 1)
		}},
		{"host", func(s string) string { return strings.Replace(s, `"host": "`, `"host": "elsewhere-`, 1) }},
		{"gomaxprocs", func(s string) string { return strings.Replace(s, `"gomaxprocs": `, `"gomaxprocs": 9`, 1) }},
	} {
		t.Run(mutate.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := OpenTunerCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			c.Store("k", "v")
			if _, err := c.Save(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, tunerCacheFileName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			edited := mutate.edit(string(data))
			if edited == string(data) {
				t.Fatal("mutation did not change the file")
			}
			if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
				t.Fatal(err)
			}
			re, err := OpenTunerCache(dir)
			if err != nil {
				t.Fatalf("foreign cache must not error: %v", err)
			}
			if re.Loaded() != 0 {
				t.Fatalf("%s-mismatched cache loaded=%d, want 0", mutate.name, re.Loaded())
			}
		})
	}
}

// TestTunerCacheConcurrentSaveMerges simulates two processes sharing a
// cache directory: each times a disjoint key set; after both save, the
// file must hold the union — the atomic rename plus merge-on-save means
// neither torches the other's verdicts.
func TestTunerCacheConcurrentSaveMerges(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenTunerCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenTunerCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	a.Store("conv|a", "direct")
	b.Store("conv|b", "int8")
	var wg sync.WaitGroup
	for _, c := range []*TunerCache{a, b} {
		wg.Add(1)
		go func(c *TunerCache) {
			defer wg.Done()
			if _, err := c.Save(); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
	// Whichever saved second merged the first's entry before renaming.
	final, err := OpenTunerCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if final.Loaded() != 2 {
		t.Fatalf("merged cache loaded=%d, want 2", final.Loaded())
	}
	for key, want := range map[string]string{"conv|a": "direct", "conv|b": "int8"} {
		if v, ok := final.Lookup(key); !ok || v != want {
			t.Fatalf("Lookup(%s) = %q/%v, want %q", key, v, ok, want)
		}
	}
}

func TestTunerCacheOwnEntriesWinMerge(t *testing.T) {
	dir := t.TempDir()
	a, _ := OpenTunerCache(dir)
	b, _ := OpenTunerCache(dir)
	a.Store("k", "stale")
	if _, err := a.Save(); err != nil {
		t.Fatal(err)
	}
	b.Store("k", "fresh")
	if _, err := b.Save(); err != nil {
		t.Fatal(err)
	}
	final, _ := OpenTunerCache(dir)
	if v, _ := final.Lookup("k"); v != "fresh" {
		t.Fatalf("merge kept %q, want the saver's own entry", v)
	}
}

func TestTunerCacheNoTempDroppings(t *testing.T) {
	dir := t.TempDir()
	c, _ := OpenTunerCache(dir)
	c.Store("k", "v")
	if _, err := c.Save(); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0].Name() != tunerCacheFileName {
		var got []string
		for _, n := range names {
			got = append(got, n.Name())
		}
		t.Fatalf("cache dir holds %v, want only %s", got, tunerCacheFileName)
	}
}
