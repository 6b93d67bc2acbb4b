package journal

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"krad/internal/wire"
)

// Shape is what a journal directory's records mean nothing without: the
// machine every shard's engine runs (K = len(Caps) categories of Caps[α−1]
// processors), how many shards there are, and the fair-share decay
// half-life in virtual steps (0 when fairness is off). Replaying a journal
// on another shape re-schedules acknowledged history, so the shape is
// recorded once, at a directory's first start, and every later start and
// every replication peer must present the same one.
type Shape struct {
	Caps     []int `json:"caps"`
	Shards   int   `json:"shards"`
	HalfLife int64 `json:"half_life,omitempty"`
}

// Validate checks that s describes a fleet.
func (s Shape) Validate() error {
	if len(s.Caps) == 0 {
		return errors.New("shape has no categories")
	}
	for a, c := range s.Caps {
		if c < 1 {
			return fmt.Errorf("shape category %d has %d processors, want ≥ 1", a+1, c)
		}
	}
	if s.Shards < 1 {
		return fmt.Errorf("shape has %d shards, want ≥ 1", s.Shards)
	}
	if s.HalfLife < 0 {
		return fmt.Errorf("shape has half-life %d, want ≥ 0", s.HalfLife)
	}
	return nil
}

// Compare returns nil when b is the shape a, and otherwise an error naming
// the first field that differs, with a's value under aName and b's under
// bName: "caps differs: recorded 4,4, given 1,1".
func (a Shape) Compare(b Shape, aName, bName string) error {
	field, va, vb := "", "", ""
	switch {
	case len(a.Caps) != len(b.Caps):
		field, va, vb = "K", strconv.Itoa(len(a.Caps)), strconv.Itoa(len(b.Caps))
	case a.caps() != b.caps():
		field, va, vb = "caps", a.caps(), b.caps()
	case a.Shards != b.Shards:
		field, va, vb = "shards", strconv.Itoa(a.Shards), strconv.Itoa(b.Shards)
	case (a.HalfLife == 0) != (b.HalfLife == 0):
		field, va, vb = "fairness", a.fairness(), b.fairness()
	case a.HalfLife != b.HalfLife:
		field, va, vb = "half-life", strconv.FormatInt(a.HalfLife, 10), strconv.FormatInt(b.HalfLife, 10)
	default:
		return nil
	}
	return fmt.Errorf("%s differs: %s %s, %s %s", field, aName, va, bName, vb)
}

// String is the shape as kradd's flags would give it.
func (s Shape) String() string {
	return fmt.Sprintf("caps %s, %d shard(s), fairness %s", s.caps(), s.Shards, s.fairness())
}

func (s Shape) caps() string {
	parts := make([]string, len(s.Caps))
	for i, c := range s.Caps {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, ",")
}

func (s Shape) fairness() string {
	if s.HalfLife == 0 {
		return "off"
	}
	return fmt.Sprintf("on (half-life %d)", s.HalfLife)
}

var shapeFields = []string{"caps", "shards", "half_life"}

// ReadJSON decodes the shape at s as encoding/json would.
func (sh *Shape) ReadJSON(s *wire.Scanner) error {
	return s.Object("shape", func(key []byte) error {
		switch wire.Field(key, shapeFields) {
		case "caps":
			return wire.ReadInts(s, "caps", &sh.Caps)
		case "shards":
			return wire.ReadInt(s, "shards", &sh.Shards)
		case "half_life":
			return wire.ReadInt(s, "half_life", &sh.HalfLife)
		}
		return s.SkipValue()
	})
}

// AppendJSON appends the shape as json.Marshal writes it.
func (sh *Shape) AppendJSON(dst []byte) []byte {
	dst = wire.AppendInts(append(dst, `{"caps":`...), sh.Caps)
	dst = wire.AppendInt(append(dst, `,"shards":`...), int64(sh.Shards))
	dst = wire.AppendIntField(dst, `,"half_life":`, sh.HalfLife)
	return append(dst, '}')
}

// ShapePath names the file a journal directory keeps its fleet's shape
// in, beside the shard journals.
func ShapePath(dir string) string { return filepath.Join(dir, "fleet-shape") }

// ReadShape reads dir's shape file. A missing file is (nil, nil): a
// directory that was never started, or one written before shapes were
// recorded. A malformed one is an error naming the file.
func ReadShape(dir string) (*Shape, error) {
	path := ShapePath(dir)
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: read shape file: %w", err)
	}
	var sh Shape
	if err = wire.Decode(b, sh.ReadJSON); err == nil {
		err = sh.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("journal: shape file %s is malformed (%q): %v", path, b, err)
	}
	return &sh, nil
}

// WriteShape records sh as dir's shape (WriteFileAtomic).
func WriteShape(dir string, sh Shape) error {
	if err := WriteFileAtomic(ShapePath(dir), append(sh.AppendJSON(nil), '\n')); err != nil {
		return fmt.Errorf("journal: record fleet shape (%s): %w", sh, err)
	}
	return nil
}
