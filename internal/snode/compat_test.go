package snode

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"snode/internal/iosim"
)

// Artifacts from any format but the current one must be rejected with
// explicit errors — unknown version, unknown codec ID — and one that
// names a codec that is gone with an error that says so.

// TestUnknownCodecIDRejected flips one directory entry to a codec ID
// from the future and pins the explicit open-time error.
func TestUnknownCodecIDRejected(t *testing.T) {
	src := buildTestRep(t, 400)
	m, err := readMeta(filepath.Join(src, "meta.bin"))
	if err != nil {
		t.Fatal(err)
	}
	m.Directory[len(m.Directory)/2].Codec = 9
	bad := corruptCopy(t, src, func(d string) {
		if err := writeMeta(filepath.Join(d, "meta.bin"), m); err != nil {
			t.Fatal(err)
		}
	})
	_, err = Open(bad, 1<<20, iosim.Model2002())
	if err == nil {
		t.Fatal("unknown codec ID accepted")
	}
	if got := err.Error(); !contains(got, "unknown codec ID 9") {
		t.Fatalf("error %q does not name the codec ID", got)
	}
}

// TestRetiredCodecRefusedByName patches wire ID 1 (codec/lz, retired)
// and wire ID 2 (codec/log, removed) into one directory entry, and into
// the codec stats, of a built store: Open refuses each with an error
// that names the codec, says what became of it and says to rebuild, not
// "unknown codec ID … newer version?".
func TestRetiredCodecRefusedByName(t *testing.T) {
	src := buildTestRep(t, 400)
	for _, c := range []struct {
		id    uint8
		wants []string
	}{
		{codecIDLZ, []string{"lz codec", "retired", "rebuild"}},
		{codecIDLog, []string{"log codec", "removed", "rebuild"}},
	} {
		for name, patch := range map[string]func(m *meta){
			"directory entry": func(m *meta) { m.Directory[len(m.Directory)/2].Codec = c.id },
			"codec stats":     func(m *meta) { m.Stats.Codecs[0].ID = c.id },
		} {
			m, err := readMeta(filepath.Join(src, "meta.bin"))
			if err != nil {
				t.Fatal(err)
			}
			patch(m)
			bad := corruptCopy(t, src, func(d string) {
				if err := writeMeta(filepath.Join(d, "meta.bin"), m); err != nil {
					t.Fatal(err)
				}
			})
			_, err = Open(bad, 1<<20, iosim.Model2002())
			if err == nil {
				t.Fatalf("ID %d in the %s accepted", c.id, name)
			}
			for _, want := range c.wants {
				if !contains(err.Error(), want) {
					t.Errorf("ID %d in the %s: error %q does not say %q", c.id, name, err, want)
				}
			}
			if contains(err.Error(), "newer version") {
				t.Errorf("ID %d in the %s: error %q takes the ID for a future one", c.id, name, err)
			}
		}
	}
}

// TestUnknownMetaVersionRejected sets the version field to the retired
// version 1 and to one past metaVersion, and pins the explicit error.
func TestUnknownMetaVersionRejected(t *testing.T) {
	src := buildTestRep(t, 400)
	raw, err := os.ReadFile(filepath.Join(src, "meta.bin"))
	if err != nil {
		t.Fatal(err)
	}
	// The header is uvarint magic then uvarint version; metaVersion (2)
	// encodes as one byte directly after the magic's varint bytes.
	magicLen := uvarintLen(metaMagic)
	if raw[magicLen] != metaVersion {
		t.Fatalf("meta.bin version byte is %d, want %d", raw[magicLen], metaVersion)
	}
	for _, v := range []byte{1, metaVersion + 1} {
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
