package driver

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// List-unit caching: `go list -export -deps` is the expensive half of a
// lint run (it consults — and if needed, populates — the build cache for
// export data of every dependency). Its output is fully determined by the
// module's source state, so vialint can persist the decoded unit list and
// reuse it while the tree is unchanged, cutting warm lint runs to parse +
// type-check + analyze.
//
// Validity is judged by a source stamp: the Go toolchain version, the
// requested patterns, and an FNV-1a hash over the relative path, size,
// and contents of every .go/go.mod/go.sum file under the module root (in
// WalkDir's lexical order, so the hash is deterministic). Any edit,
// addition, deletion, or rename perturbs the stamp and forces a fresh
// `go list`. Hashing contents rather than mtimes makes the stamp survive
// a fresh checkout — CI restores .cache/ across runs, and every checkout
// rewrites mtimes while the bytes are unchanged. Export-data files
// recorded in the cache are also re-stat'd — the go build cache may have
// pruned them, in which case the cache is stale regardless of the stamp.

// listCache is the on-disk cache file format.
type listCache struct {
	Stamp   sourceStamp
	Listing listing
}

// sourceStamp fingerprints the inputs that determine `go list` output.
type sourceStamp struct {
	GoVersion string
	Patterns  string
	Files     int
	Bytes     int64
	Hash      uint64 // FNV-1a over (relative path, size, contents) per file
}

// stampSources walks the module tree rooted at dir.
func stampSources(dir string, patterns []string) (sourceStamp, error) {
	st := sourceStamp{GoVersion: runtime.Version(), Patterns: strings.Join(patterns, " ")}
	h := fnv.New64a()
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "bin" {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		st.Files++
		st.Bytes += info.Size()
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			rel = path
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), info.Size())
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		_, cerr := io.Copy(h, f)
		f.Close() //vialint:ignore errwrap read-only file; the copy error below covers short reads
		if cerr != nil {
			return cerr
		}
		return nil
	})
	st.Hash = h.Sum64()
	return st, err
}

// LoadCached is Load with a persistent `go list` unit cache at cacheFile.
// A hit skips the go list round-trip entirely; misses (first run, changed
// sources, pruned export data) fall back to go list and refresh the
// cache. An unwritable cache file degrades to plain Load, never fails the
// lint.
func LoadCached(dir, cacheFile string, patterns []string) ([]*Package, bool, error) {
	root := dir
	if root == "" {
		root = "."
	}
	stamp, err := stampSources(root, patterns)
	if err != nil {
		pkgs, lerr := Load(dir, patterns)
		return pkgs, false, lerr
	}
	if cached, ok := readListCache(cacheFile, stamp); ok {
		pkgs, err := buildPackages(cached)
		if err == nil {
			return pkgs, true, nil
		}
		// Cached units no longer build (e.g. export data vanished
		// mid-flight): fall through to a fresh list.
	}
	l, err := list(dir, patterns)
	if err != nil {
		return nil, false, err
	}
	writeListCache(cacheFile, listCache{Stamp: stamp, Listing: l})
	pkgs, err := buildPackages(l)
	return pkgs, false, err
}

// readListCache loads and validates the cache file against the stamp.
func readListCache(cacheFile string, stamp sourceStamp) (listing, bool) {
	data, err := os.ReadFile(cacheFile)
	if err != nil {
		return listing{}, false
	}
	var c listCache
	if err := json.Unmarshal(data, &c); err != nil || c.Stamp != stamp {
		return listing{}, false
	}
	// Export data lives in the go build cache and can be pruned under us.
	for _, pkgs := range append([][]listedPkg{c.Listing.Pkgs}, c.Listing.Referrers...) {
		for _, p := range pkgs {
			if _, err := os.Stat(p.Export); p.Export != "" && err != nil {
				return listing{}, false
			}
		}
	}
	return c.Listing, true
}

// writeListCache persists the cache, atomically and best-effort.
func writeListCache(cacheFile string, c listCache) {
	data, err := json.Marshal(c)
	if err != nil {
		return
	}
	if err := os.MkdirAll(filepath.Dir(cacheFile), 0o755); err != nil {
		return
	}
	tmp := cacheFile + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	//vialint:ignore errwrap best-effort cache write: a failed rename just means the next run re-lists
	_ = os.Rename(tmp, cacheFile)
}
