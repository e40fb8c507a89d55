package iofault

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrBadName rejects a name that is not 64 hex digits.
var ErrBadName = errors.New("iofault: malformed blob name")

// Blobs is a directory of files named by 64-hex digests, fanned out as
// <root>/<aa>/<rest>: the one store under asapd's artifact objects and
// result-cache cells. Puts go through WriteDurable. Bytes is a counter,
// seeded at open and moved by Put, Remove and Clear, because the
// disk-budget watermarks read it on the hot path.
type Blobs struct {
	root  string
	fsys  FS
	bytes atomic.Int64
	onErr func(error)
	locks [64]sync.Mutex // writers of one name serialise on a stripe
}

// OpenBlobs creates (if needed) and opens the store at root. Its one
// walk removes the temp files a crash mid-Put strands and sums the rest.
func OpenBlobs(fsys FS, root string) (*Blobs, error) {
	if err := fsys.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	b := &Blobs{root: root, fsys: fsys}
	n, _, err := b.sweep(true)
	if err != nil {
		return nil, err
	}
	b.bytes.Store(n)
	return b, nil
}

// SetErrorHook registers an observer for every I/O failure except
// not-exist. Call before the store is shared.
func (b *Blobs) SetErrorHook(fn func(error)) { b.onErr = fn }

// fail returns err, reporting it to the hook unless nil or not-exist.
func (b *Blobs) fail(err error) error {
	if err != nil && !errors.Is(err, fs.ErrNotExist) && b.onErr != nil {
		b.onErr(err)
	}
	return err
}

// Bytes returns the committed files' on-disk footprint.
func (b *Blobs) Bytes() int64 { return b.bytes.Load() }

// lock takes name's stripe, so a Put or Remove reads the size it
// replaces only after the previous writer of that name is done, and the
// ledger moves once per file however many writers race.
func (b *Blobs) lock(name string) *sync.Mutex {
	m := &b.locks[(int(name[62])*31+int(name[63]))%len(b.locks)]
	m.Lock()
	return m
}

// Path maps a validated name to its on-disk path.
func (b *Blobs) Path(name string) (string, error) {
	if len(name) != 64 || strings.Trim(name, "0123456789abcdefABCDEF") != "" {
		return "", fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return filepath.Join(b.root, name[:2], name[2:]), nil
}

// Get returns the file stored under name.
func (b *Blobs) Get(name string) ([]byte, error) {
	path, err := b.Path(name)
	if err != nil {
		return nil, err
	}
	data, err := b.fsys.ReadFile(path)
	return data, b.fail(err)
}

// Has reports whether a file is stored under name.
func (b *Blobs) Has(name string) bool {
	path, err := b.Path(name)
	if err == nil {
		_, err = b.fsys.Stat(path)
	}
	return err == nil
}

// Put stores data under name, durable when it returns. On failure the
// name holds its previous content or nothing, never a mix.
func (b *Blobs) Put(name string, data []byte) error {
	path, err := b.Path(name)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := b.fsys.MkdirAll(dir, 0o755); err != nil {
		return b.fail(err)
	}
	defer b.lock(name).Unlock()
	var prev int64
	if st, err := b.fsys.Stat(path); err == nil {
		prev = st.Size()
	}
	if err = WriteDurable(b.fsys, dir, path, data); err == nil {
		b.bytes.Add(int64(len(data)) - prev)
	}
	return b.fail(err)
}

// Remove deletes the file stored under name.
func (b *Blobs) Remove(name string) error {
	path, err := b.Path(name)
	if err != nil {
		return err
	}
	defer b.lock(name).Unlock()
	st, err := b.fsys.Stat(path)
	if err == nil {
		if err = b.fsys.Remove(path); err == nil {
			b.bytes.Add(-st.Size())
		}
	}
	return b.fail(err)
}

// Clear removes every committed file and returns the bytes freed. It
// holds every stripe, so no Put or Remove moves the ledger under it.
// It leaves temp files to the next open's sweep.
func (b *Blobs) Clear() (int64, error) {
	for i := range b.locks {
		b.locks[i].Lock()
		defer b.locks[i].Unlock()
	}
	_, freed, err := b.sweep(false)
	if b.bytes.Add(-freed) < 0 {
		b.bytes.Store(0)
	}
	return freed, err
}

// sweep walks every file under the root, depth first, removing the temp
// files (temps) or the committed ones (!temps), and sums the bytes it
// kept and freed. It keeps going past failures and returns the first;
// not-exist (a file gone under the walk) is skipped.
func (b *Blobs) sweep(temps bool) (kept, freed int64, first error) {
	keep := func(err error) bool {
		if b.fail(err) != nil && !errors.Is(err, fs.ErrNotExist) && first == nil {
			first = err
		}
		return err == nil
	}
	var visit func(dir string)
	visit = func(dir string) {
		ents, err := b.fsys.ReadDir(dir)
		keep(err)
		for _, e := range ents {
			p := filepath.Join(dir, e.Name())
			if e.IsDir() {
				visit(p)
				continue
			}
			info, err := e.Info()
			if !keep(err) {
				continue
			}
			if strings.HasPrefix(e.Name(), ".tmp-") != temps {
				kept += info.Size()
			} else if keep(b.fsys.Remove(p)) {
				freed += info.Size()
			}
		}
	}
	visit(b.root)
	return kept, freed, first
}
