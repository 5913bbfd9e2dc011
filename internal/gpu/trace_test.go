package gpu

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var events []interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatal("empty ledger must give an empty array")
	}
}

func TestTraceCarriesBytesForMemcpy(t *testing.T) {
	ev := []Event{{Kind: EvMemcpyH2D, Name: "input", StartNs: 0, DurNs: 10, Bytes: 4096}}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, ev); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	args := events[0]["args"].(map[string]interface{})
	if args["bytes"].(float64) != 4096 {
		t.Fatalf("bytes arg = %v", args["bytes"])
	}
}
