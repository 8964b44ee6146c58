package trace

import (
	"strings"
	"testing"
)

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindTxStart, KindTxEnd, KindTxAbort, KindDeliver, KindBackoffDraw, Kind(77)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Time: 1234, Node: 7, Kind: KindDeliver, Arg: 42}
	s := r.String()
	if !strings.Contains(s, "deliver") || !strings.Contains(s, "42") {
		t.Errorf("record string %q", s)
	}
}
