// Package cloud models the offline half of Fig. 1 to the extent the
// on-vehicle system interacts with it: payload compression for the hourly
// field-data upload, and the cost of the RPR-swapped FPGA compression
// engine that performs it. Fleet telemetry storage lives in
// internal/telemetry, which uses this package's Compress/Decompress for
// its sorted-run blocks.
package cloud

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"time"
)

// Compress deflates a payload (the hourly field-data upload of Sec. VII:
// "sensor samples captured in the field could be compressed and uploaded to
// the cloud; this task ... happens only once per hour, and thus could be
// swapped in only when needed" via RPR).
func Compress(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decompress inflates a payload produced by Compress.
func Decompress(data []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CompressionAccelerator models the FPGA compression engine that RPR swaps
// in for the hourly upload: fixed throughput and power while resident, zero
// cost while swapped out.
type CompressionAccelerator struct {
	// ThroughputBps is the streaming compression rate.
	ThroughputBps float64
	// PowerW while the accelerator is resident and active.
	PowerW float64
}

// DefaultCompressionAccelerator returns a 200 MB/s, 2 W engine.
func DefaultCompressionAccelerator() CompressionAccelerator {
	return CompressionAccelerator{ThroughputBps: 200e6, PowerW: 2}
}

// Job is one compression task's cost estimate.
type Job struct {
	InputBytes int64
	Duration   time.Duration
	EnergyJ    float64
}

// Estimate returns the accelerator cost for a payload.
func (a CompressionAccelerator) Estimate(inputBytes int64) Job {
	if a.ThroughputBps <= 0 {
		return Job{InputBytes: inputBytes}
	}
	d := time.Duration(float64(inputBytes) / a.ThroughputBps * float64(time.Second))
	return Job{InputBytes: inputBytes, Duration: d, EnergyJ: a.PowerW * d.Seconds()}
}

// HourlyUploadPlan is the Sec. VII RPR use case evaluated end to end: swap
// the compressor in, compress an hour of sensor data, swap the localization
// variant back. It returns a human-readable cost summary.
func HourlyUploadPlan(hourBytes int64, acc CompressionAccelerator, swapCost time.Duration) string {
	job := acc.Estimate(hourBytes)
	total := job.Duration + 2*swapCost
	return fmt.Sprintf(
		"hourly upload: %.1f GB -> compress %.1fs + 2 swaps %.1f ms = %.1fs busy/hour (%.4f%% duty)",
		float64(hourBytes)/1e9, job.Duration.Seconds(), 2*swapCost.Seconds()*1000,
		total.Seconds(), 100*total.Seconds()/3600)
}
