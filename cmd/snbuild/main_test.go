package main

import (
	"strings"
	"testing"

	"snode/internal/snode"
)

// TestCheckCodec: the two codecs a build can use pass -codec's
// validation; the two removed ones are refused like any unknown name,
// with the accepted values and the removal in the message.
func TestCheckCodec(t *testing.T) {
	for _, name := range snode.CodecNames() {
		if err := checkCodec(name); err != nil {
			t.Errorf("-codec %s refused: %v", name, err)
		}
	}
	for _, name := range []string{"lz", "auto", "zstd", ""} {
		err := checkCodec(name)
		if err == nil {
			t.Errorf("-codec %q accepted", name)
			continue
		}
		for _, want := range []string{"-codec", snode.CodecPaper, snode.CodecLog, "lz and auto were removed"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("-codec %q: error %q does not say %q", name, err, want)
			}
		}
	}
}
