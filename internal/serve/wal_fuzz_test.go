package serve

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzScanWAL feeds arbitrary bytes to scanWAL as a WAL file: its length
// and CRC framing is what recovery trusts after a crash. It must never
// panic, the intact prefix and the torn tail must add up to the file, and
// re-scanning the file cut at the intact prefix must recover the same
// intents with nothing torn, as OpenWAL's truncation promises. The seed
// corpus in testdata/fuzz/FuzzScanWAL holds clean logs, a log torn in a
// payload and in a header, a flipped CRC, zero and absurd lengths, and a
// checksummed record that is not an intent.
func FuzzScanWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		intents, good, info, err := scanWAL(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("scanWAL of an in-memory file: %v", err)
		}
		if good+info.TruncatedBytes != int64(len(data)) {
			t.Fatalf("intact %d + torn %d bytes != file size %d", good, info.TruncatedBytes, len(data))
		}
		if info.Records != len(intents) {
			t.Fatalf("%d records reported for %d intents", info.Records, len(intents))
		}
		again, good2, info2, err := scanWAL(bytes.NewReader(data[:good]))
		if err != nil || good2 != good || info2.TruncatedBytes != 0 {
			t.Fatalf("re-scan of the intact %d bytes: intact %d, torn %d, err %v", good, good2, info2.TruncatedBytes, err)
		}
		if !reflect.DeepEqual(again, intents) {
			t.Fatalf("re-scan recovered %+v, first scan %+v", again, intents)
		}
	})
}
