package cluster

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"gridbw/internal/wal"
)

// TestReplStreamGoldens pins the replication stream's bytes: a follower
// built from an older tree reads a newer primary's stream, so a batch of two
// records, the gone frame and a cursor frame must encode to exactly these
// bytes, and decode from them to what was encoded.
func TestReplStreamGoldens(t *testing.T) {
	batch := ShippedBatch{
		Epoch: 7, From: wal.Pos{Seg: 2, Off: 10}, Next: wal.Pos{Seg: 3, Off: 40},
		End: wal.Pos{Seg: 4, Off: 1}, LagBytes: 99, Events: [][]byte{[]byte("ab"), []byte("xyz")},
	}
	cursor := wal.Pos{Seg: 3, Off: 4096}
	golden := map[string][]byte{}
	for _, g := range []struct {
		name, hex string
		frame     []byte
	}{
		{"batch", "47524231" + "51000000" + "02000000" + "0700000000000000" +
			"0200000000000000" + "0a00000000000000" + "0300000000000000" + "2800000000000000" +
			"0400000000000000" + "0100000000000000" + "6300000000000000" +
			"02000000" + "6162" + "03000000" + "78797a",
			AppendReplBatch(nil, &batch)},
		{"gone", "47524731" + "04000000" + "00000000", AppendReplGone(nil)},
		{"cursor", "0300000000000000" + "0010000000000000", AppendPos(nil, cursor)},
	} {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.frame, want) {
			t.Errorf("%s frame:\n got %x\nwant %x", g.name, g.frame, want)
		}
		golden[g.name] = want
	}

	b, gone, err := DecodeReplFrame(golden["batch"])
	if err != nil || gone || !reflect.DeepEqual(b, batch) {
		t.Errorf("batch decodes to %+v, gone=%v, %v", b, gone, err)
	}
	if _, gone, err := DecodeReplFrame(golden["gone"]); err != nil || !gone {
		t.Errorf("gone frame: gone=%v, %v", gone, err)
	}
	if p, err := DecodeReplAck(golden["cursor"]); err != nil || p != cursor {
		t.Errorf("cursor decodes to %v, %v", p, err)
	}
}
