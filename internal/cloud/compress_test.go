package cloud

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestCompressRoundTripTable: Compress∘Decompress is the identity across
// payload shapes — empty, tiny, repetitive (compressible), random
// (incompressible), binary with zero runs, and multi-megabyte.
func TestCompressRoundTripTable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	random := make([]byte, 64<<10)
	rng.Read(random)
	zeros := make([]byte, 32<<10)
	big := bytes.Repeat([]byte(`{"cycle":1,"t_ms":100,"v":2.5,"objects":3}`+"\n"), 100_000)

	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"one byte", []byte{0x42}},
		{"short text", []byte("hello, fleet")},
		{"repetitive jsonl", []byte(strings.Repeat(`{"soc":0.95,"odo_m":120.5}`+"\n", 500))},
		{"random", random},
		{"zero run", zeros},
		{"multi-megabyte trace", big},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			z, err := Compress(c.payload)
			if err != nil {
				t.Fatalf("compress: %v", err)
			}
			back, err := Decompress(z)
			if err != nil {
				t.Fatalf("decompress: %v", err)
			}
			if !bytes.Equal(back, c.payload) {
				t.Fatalf("round trip broke: %d bytes in, %d bytes back", len(c.payload), len(back))
			}
			// Deterministic within a build: same input, same bytes.
			z2, err := Compress(c.payload)
			if err != nil || !bytes.Equal(z, z2) {
				t.Fatalf("compression not deterministic (err=%v)", err)
			}
		})
	}
	// Repetitive payloads must actually shrink — the hourly upload's point.
	z, _ := Compress(big)
	if len(z) >= len(big)/10 {
		t.Fatalf("repetitive payload barely compressed: %d -> %d", len(big), len(z))
	}
}

// TestDecompressTruncatedAndCorrupt: every mangled input must return an
// error — never panic, never silently succeed with wrong bytes.
func TestDecompressTruncatedAndCorrupt(t *testing.T) {
	payload := []byte(strings.Repeat("sensor sample 0123456789 ", 2000))
	z, err := Compress(payload)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated stream", func(t *testing.T) {
		for _, keep := range []int{1, 2, len(z) / 2, len(z) - 1} {
			if _, err := Decompress(z[:keep]); err == nil {
				t.Fatalf("truncation to %d bytes decompressed without error", keep)
			}
		}
	})
	t.Run("empty input", func(t *testing.T) {
		if _, err := Decompress(nil); err == nil {
			t.Fatal("empty input must fail (no terminator)")
		}
	})
	t.Run("flipped header byte", func(t *testing.T) {
		mut := append([]byte(nil), z...)
		mut[0] ^= 0xff
		out, err := Decompress(mut)
		if err == nil && bytes.Equal(out, payload) {
			t.Fatal("corrupt header silently produced the original payload")
		}
	})
	t.Run("garbage", func(t *testing.T) {
		junk := make([]byte, 4096)
		rand.New(rand.NewSource(3)).Read(junk)
		// flate may or may not error on arbitrary bytes, but it must not
		// panic and must not reproduce anything but what the bytes decode
		// to; exercising it pins the no-panic contract.
		if out, err := Decompress(junk); err == nil && bytes.Equal(out, payload) {
			t.Fatal("garbage decoded to the original payload")
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		mut := append(append([]byte(nil), z...), 0xde, 0xad)
		out, err := Decompress(mut)
		// flate stops at the stream terminator; the payload must survive.
		if err == nil && !bytes.Equal(out, payload) {
			t.Fatal("trailing garbage corrupted the payload")
		}
	})
}

func TestCompressRoundTrip(t *testing.T) {
	payload := []byte(strings.Repeat(`{"kind":"heartbeat","at":123456}`, 200))
	c, err := Compress(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) >= len(payload)/4 {
		t.Fatalf("repetitive JSON compressed to %d/%d — ratio too weak", len(c), len(payload))
	}
	back, err := Decompress(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(payload) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestDecompressGarbage(t *testing.T) {
	if _, err := Decompress([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err == nil {
		t.Fatal("garbage should not inflate")
	}
}

func TestCompressionAcceleratorEstimate(t *testing.T) {
	acc := DefaultCompressionAccelerator()
	// 1 hour of raw data at the paper's ~1 TB/day is ~42 GB.
	job := acc.Estimate(42 << 30)
	if job.Duration < 100*time.Second || job.Duration > 400*time.Second {
		t.Fatalf("42 GB at 200 MB/s = %v, want ~225 s", job.Duration)
	}
	if job.EnergyJ <= 0 {
		t.Fatal("energy must be positive")
	}
	if z := (CompressionAccelerator{}).Estimate(100); z.Duration != 0 {
		t.Fatal("degenerate accelerator should be zero, not Inf")
	}
}

func TestHourlyUploadPlanLowDuty(t *testing.T) {
	out := HourlyUploadPlan(42<<30, DefaultCompressionAccelerator(), 3*time.Millisecond)
	if !strings.Contains(out, "duty") {
		t.Fatalf("plan: %s", out)
	}
	// The whole point of RPR here: the compressor occupies the fabric a
	// few percent of the hour, not permanently.
	if !strings.Contains(out, "swaps") {
		t.Fatal("plan should include swap cost")
	}
}
