package snode

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"snode/internal/iosim"
)

// A meta.bin of any version but the current one is refused at Open with
// an error that names the version and says to rebuild the dataset.

// TestUnknownMetaVersionRejected sets the version field to the retired
// versions 1 and 2 and to one past metaVersion, and pins the explicit
// error.
func TestUnknownMetaVersionRejected(t *testing.T) {
	src := buildTestRep(t, 400)
	raw, err := os.ReadFile(filepath.Join(src, "meta.bin"))
	if err != nil {
		t.Fatal(err)
	}
	// The header is uvarint magic then uvarint version; metaVersion (3)
	// encodes as one byte directly after the magic's varint bytes.
	magicLen := uvarintLen(metaMagic)
	if raw[magicLen] != metaVersion {
		t.Fatalf("meta.bin version byte is %d, want %d", raw[magicLen], metaVersion)
	}
	for _, v := range []byte{1, 2, metaVersion + 1} {
		raw[magicLen] = v
		bad := corruptCopy(t, src, func(d string) {
			if err := os.WriteFile(filepath.Join(d, "meta.bin"), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		})
		_, err = Open(bad, 1<<20, iosim.Model2002())
		if err == nil {
			t.Fatalf("meta version %d accepted", v)
		}
		if got, want := err.Error(), fmt.Sprintf("unsupported version %d", v); !contains(got, want) {
			t.Fatalf("error %q does not say %q", got, want)
		}
		if !contains(err.Error(), "rebuild the dataset") {
			t.Fatalf("version %d: error %q does not say to rebuild the dataset", v, err)
		}
	}
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
