package replicate

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"krad/internal/journal"
)

// EpochFileName is the file an EpochFile keeps in the journal directory.
const EpochFileName = "replication-epoch"

// EpochFile is a node's replication epoch and fence, kept in memory and in
// EpochFileName beside the shard journals, so both survive a restart. The
// file holds the highest epoch this node has held or adopted, and the
// epoch that fenced it (0 if none). Every change is written to disk
// (journal.WriteFileAtomic) before the caller acts on it.
type EpochFile struct {
	path string

	mu     sync.Mutex
	epoch  int64
	fenced int64
}

type epochRecord struct {
	Epoch  int64 `json:"epoch"`
	Fenced int64 `json:"fenced_by"`
}

// OpenEpochFile reads dir's epoch file. A missing file is epoch 1 with no
// fence, what a fresh pair starts at; a malformed one is an error naming
// the file.
func OpenEpochFile(dir string) (*EpochFile, error) {
	e := &EpochFile{path: filepath.Join(dir, EpochFileName), epoch: 1}
	b, err := os.ReadFile(e.path)
	if errors.Is(err, fs.ErrNotExist) {
		return e, nil
	}
	if err != nil {
		return nil, fmt.Errorf("replicate: read epoch file: %w", err)
	}
	var rec epochRecord
	if err := json.Unmarshal(b, &rec); err != nil || rec.Epoch < 1 || rec.Fenced < 0 {
		return nil, fmt.Errorf("replicate: epoch file %s is malformed (%q): want {\"epoch\":E,\"fenced_by\":F} with E ≥ 1, F ≥ 0", e.path, b)
	}
	e.epoch, e.fenced = rec.Epoch, rec.Fenced
	return e, nil
}

// Current returns the highest epoch this node has held or adopted.
func (e *EpochFile) Current() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epoch
}

// FencedBy returns the epoch that fenced this node, 0 if none.
func (e *EpochFile) FencedBy() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fenced
}

// Fence records that a peer holding epoch by deposed this node. The fence
// latches in memory even when the write fails: a node that cannot record
// its fence must still stop admitting.
func (e *EpochFile) Fence(by int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fenced != 0 {
		return nil
	}
	err := e.writeLocked(e.epoch, by)
	e.fenced = by
	return err
}

// Adopt raises the epoch to a higher one a primary presents. Nothing
// changes when the write fails.
func (e *EpochFile) Adopt(epoch int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if epoch <= e.epoch {
		return nil
	}
	if err := e.writeLocked(epoch, e.fenced); err != nil {
		return err
	}
	e.epoch = epoch
	return nil
}

// Promote moves past every epoch this node has seen, the one that fenced
// it included, clears the fence and returns the new epoch. Nothing
// changes when the write fails.
func (e *EpochFile) Promote() (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	next := max(e.epoch, e.fenced) + 1
	if err := e.writeLocked(next, 0); err != nil {
		return 0, err
	}
	e.epoch, e.fenced = next, 0
	return next, nil
}

func (e *EpochFile) writeLocked(epoch, fenced int64) error {
	b := fmt.Appendf(nil, "{\"epoch\":%d,\"fenced_by\":%d}\n", epoch, fenced)
	if err := journal.WriteFileAtomic(e.path, b); err != nil {
		return fmt.Errorf("replicate: record epoch %d (fenced by %d): %w", epoch, fenced, err)
	}
	return nil
}
