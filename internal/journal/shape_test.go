package journal

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestShapeFile: a directory without the file has no shape; a written
// shape is json.Marshal's bytes and reads back as itself.
func TestShapeFile(t *testing.T) {
	dir := t.TempDir()
	if sh, err := ReadShape(dir); sh != nil || err != nil {
		t.Fatalf("empty directory: %+v, %v", sh, err)
	}
	for _, want := range []Shape{
		{Caps: []int{4, 4}, Shards: 1},
		{Caps: []int{3, 2, 1}, Shards: 8, HalfLife: 64},
	} {
		if err := WriteShape(dir, want); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(ShapePath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if oracle, _ := json.Marshal(want); string(b) != string(oracle)+"\n" {
			t.Errorf("wrote %q, want %q", b, oracle)
		}
		got, err := ReadShape(dir)
		if err != nil || got == nil || !reflect.DeepEqual(*got, want) {
			t.Errorf("read %+v (%v), want %+v", got, err, want)
		}
	}
}
