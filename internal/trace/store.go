package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Store is where a run's trace lands: one log and one meta file per
// analyzed thread slot, plus named auxiliary files (the interned
// program-counter table). DirStore keeps them on the file system like the
// real tool; MemStore keeps tests hermetic.
type Store interface {
	// CreateLog opens the log file of a thread slot for writing.
	CreateLog(slot int) (io.WriteCloser, error)
	// CreateMeta opens the meta-data file of a thread slot for writing.
	CreateMeta(slot int) (io.WriteCloser, error)
	// CreateAux opens a named auxiliary file for writing. The file is
	// published atomically on Close: until then OpenAux sees no file (or
	// the previous complete one), never a partial write.
	CreateAux(name string) (io.WriteCloser, error)
	// OpenLog opens the log file of a thread slot for reading.
	OpenLog(slot int) (io.ReadCloser, error)
	// OpenMeta opens the meta-data file of a thread slot for reading.
	OpenMeta(slot int) (io.ReadCloser, error)
	// OpenAux opens a named auxiliary file for reading.
	OpenAux(name string) (io.ReadCloser, error)
	// Slots lists the thread slots that have a meta file, ascending.
	Slots() ([]int, error)
	// BytesWritten reports the total bytes written so far, for I/O
	// accounting in the experiment harness.
	BytesWritten() uint64
}

// DirStore stores trace files in a directory:
// sword_<slot>.log, sword_<slot>.meta, sword_<name>.aux.
//
// The store tracks every writer it hands out; Close deterministically
// releases any still-open file handles, so a finished Session never leaks
// descriptors even when a writer's owner aborted mid-stream.
type DirStore struct {
	dir   string
	mu    sync.Mutex
	total uint64
	open  map[*dirFile]struct{}
}

// dirFile is a DirStore writer: it counts written bytes into the store's
// total and deregisters itself on Close. Close is idempotent. An aux
// writer (final set) writes a temporary file that Close renames to final.
type dirFile struct {
	f      *os.File
	s      *DirStore
	final  string
	closed bool
}

func (w *dirFile) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.s.mu.Lock()
	w.s.total += uint64(n)
	w.s.mu.Unlock()
	return n, err
}

func (w *dirFile) Close() error { return w.close(true) }

// close releases the file. An aux file is renamed into place only when
// publish is set and the close succeeded; otherwise its temporary is
// removed, so a torn aux file is never visible.
func (w *dirFile) close(publish bool) error {
	w.s.mu.Lock()
	if w.closed {
		w.s.mu.Unlock()
		return nil
	}
	w.closed = true
	delete(w.s.open, w)
	w.s.mu.Unlock()
	err := w.f.Close()
	if w.final == "" {
		return err
	}
	if err == nil && publish {
		return os.Rename(w.f.Name(), w.final)
	}
	os.Remove(w.f.Name())
	return err
}

// NewDirStore creates the directory if needed and returns a store over it.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: create store dir: %w", err)
	}
	return &DirStore{dir: dir, open: make(map[*dirFile]struct{})}, nil
}

// Dir returns the backing directory.
func (s *DirStore) Dir() string { return s.dir }

func (s *DirStore) logPath(slot int) string {
	return filepath.Join(s.dir, fmt.Sprintf("sword_%d.log", slot))
}

func (s *DirStore) metaPath(slot int) string {
	return filepath.Join(s.dir, fmt.Sprintf("sword_%d.meta", slot))
}

func (s *DirStore) auxPath(name string) string {
	return filepath.Join(s.dir, "sword_"+name+".aux")
}

func (s *DirStore) create(path, final string) (io.WriteCloser, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &dirFile{f: f, s: s, final: final}
	s.mu.Lock()
	s.open[w] = struct{}{}
	s.mu.Unlock()
	return w, nil
}

// CreateLog implements Store.
func (s *DirStore) CreateLog(slot int) (io.WriteCloser, error) { return s.create(s.logPath(slot), "") }

// CreateMeta implements Store.
func (s *DirStore) CreateMeta(slot int) (io.WriteCloser, error) {
	return s.create(s.metaPath(slot), "")
}

// CreateAux implements Store: the file is written as <name>.tmp and
// renamed into place on Close.
func (s *DirStore) CreateAux(name string) (io.WriteCloser, error) {
	path := s.auxPath(name)
	return s.create(path+".tmp", path)
}

// OpenLog implements Store.
func (s *DirStore) OpenLog(slot int) (io.ReadCloser, error) { return os.Open(s.logPath(slot)) }

// OpenMeta implements Store.
func (s *DirStore) OpenMeta(slot int) (io.ReadCloser, error) { return os.Open(s.metaPath(slot)) }

// OpenAux implements Store.
func (s *DirStore) OpenAux(name string) (io.ReadCloser, error) { return os.Open(s.auxPath(name)) }

// Slots implements Store.
func (s *DirStore) Slots() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var slots []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "sword_") || !strings.HasSuffix(name, ".meta") {
			continue
		}
		id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "sword_"), ".meta"))
		if err != nil {
			continue
		}
		// A crash between creating a slot's meta file and committing its
		// first record leaves a zero-length file: not a slot, skip it.
		if info, err := e.Info(); err == nil && info.Size() == 0 {
			continue
		}
		slots = append(slots, id)
	}
	sort.Ints(slots)
	return slots, nil
}

// BytesWritten implements Store.
func (s *DirStore) BytesWritten() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// OpenWriters returns the number of writers handed out and not yet
// closed — zero after an orderly shutdown.
func (s *DirStore) OpenWriters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.open)
}

// Close releases any writers still open, aggregating every close error
// with errors.Join — on a full disk each file's close can fail for its own
// reason, and dropping all but the first hides which files lost data.
// An orderly run has none (the collector closes its own); Close makes the
// teardown deterministic regardless. An abandoned aux writer is discarded,
// not published. Idempotent; reads remain valid afterwards.
func (s *DirStore) Close() error {
	s.mu.Lock()
	remaining := make([]*dirFile, 0, len(s.open))
	for w := range s.open {
		remaining = append(remaining, w)
	}
	s.mu.Unlock()
	var errs []error
	for _, w := range remaining {
		if err := w.close(false); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// MemStore keeps all trace files in memory. It is safe for concurrent use.
type MemStore struct {
	mu    sync.Mutex
	logs  map[int]*bytes.Buffer
	metas map[int]*bytes.Buffer
	aux   map[string]*bytes.Buffer
	total uint64
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{
		logs:  make(map[int]*bytes.Buffer),
		metas: make(map[int]*bytes.Buffer),
		aux:   make(map[string]*bytes.Buffer),
	}
}

type memWriter struct {
	s   *MemStore
	buf *bytes.Buffer
}

func (w memWriter) Write(p []byte) (int, error) {
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	w.s.total += uint64(len(p))
	return w.buf.Write(p)
}

func (w memWriter) Close() error { return nil }

func (s *MemStore) createIn(m map[int]*bytes.Buffer, slot int) (io.WriteCloser, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := &bytes.Buffer{}
	m[slot] = buf
	return memWriter{s: s, buf: buf}, nil
}

// CreateLog implements Store.
func (s *MemStore) CreateLog(slot int) (io.WriteCloser, error) { return s.createIn(s.logs, slot) }

// CreateMeta implements Store.
func (s *MemStore) CreateMeta(slot int) (io.WriteCloser, error) { return s.createIn(s.metas, slot) }

// memAuxWriter buffers an aux file privately and publishes it into the
// store on Close.
type memAuxWriter struct {
	s    *MemStore
	name string
	buf  bytes.Buffer
	done bool
}

func (w *memAuxWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

func (w *memAuxWriter) Close() error {
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	if !w.done {
		w.done = true
		w.s.total += uint64(w.buf.Len())
		w.s.aux[w.name] = &w.buf
	}
	return nil
}

// CreateAux implements Store.
func (s *MemStore) CreateAux(name string) (io.WriteCloser, error) {
	return &memAuxWriter{s: s, name: name}, nil
}

func (s *MemStore) openIn(m map[int]*bytes.Buffer, slot int) (io.ReadCloser, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, ok := m[slot]
	if !ok {
		return nil, fmt.Errorf("trace: memstore: no file for slot %d", slot)
	}
	return io.NopCloser(bytes.NewReader(buf.Bytes())), nil
}

// OpenLog implements Store.
func (s *MemStore) OpenLog(slot int) (io.ReadCloser, error) { return s.openIn(s.logs, slot) }

// OpenMeta implements Store.
func (s *MemStore) OpenMeta(slot int) (io.ReadCloser, error) { return s.openIn(s.metas, slot) }

// OpenAux implements Store.
func (s *MemStore) OpenAux(name string) (io.ReadCloser, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, ok := s.aux[name]
	if !ok {
		return nil, fmt.Errorf("trace: memstore: no aux file %q", name)
	}
	return io.NopCloser(bytes.NewReader(buf.Bytes())), nil
}

// Slots implements Store.
func (s *MemStore) Slots() ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slots := make([]int, 0, len(s.metas))
	for slot := range s.metas {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	return slots, nil
}

// BytesWritten implements Store.
func (s *MemStore) BytesWritten() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}
