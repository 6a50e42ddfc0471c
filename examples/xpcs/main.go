// xpcs reproduces the X-ray photon correlation spectroscopy case study
// (paper §2, §6): an on-demand analysis pipeline triggered as data are
// collected at the beamline. Detector frame sets land at the beamline's
// transfer endpoint; each arrival triggers (1) out-of-band staging of
// the dataset to the HPC facility — large data never passes through
// the funcX cloud service (§4.6) — and (2) a funcX invocation of the
// corr function with only the *data reference* as its argument.
//
// The corr implementation computes a real multi-tau-style intensity
// autocorrelation g2(τ) over the staged frames.
//
//	go run ./examples/xpcs
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"funcx/internal/core"
	"funcx/internal/dataref"
	"funcx/internal/sdk"
	"funcx/internal/serial"
	"funcx/internal/service"
	"funcx/internal/types"
)

// corrBody is the registered analysis function: XPCS-eigen's corr,
// invoked with a reference to the staged frame set.
var corrBody = []byte(`def xpcs_corr(dataset_ref):
    from xpcs_eigen import corr
    frames = globus_fetch(dataset_ref)   # staged out of band
    return corr.multitau(frames, taus=8)
`)

const (
	nFrames   = 64  // frames per acquisition
	pixels    = 256 // pixels per frame (16x16 detector patch)
	nTaus     = 8   // correlation lags computed
	frameRate = 60.0
)

// synthesizeFrames produces a detector time series whose intensity
// fluctuates with a known correlation time, so g2 decays visibly.
func synthesizeFrames(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, nFrames*pixels)
	signal := 0.5
	for f := 0; f < nFrames; f++ {
		// AR(1) intensity: correlation time of a few frames.
		signal = 0.85*signal + 0.15*rng.Float64()
		for p := 0; p < pixels; p++ {
			v := signal*200 + rng.Float64()*40
			buf[f*pixels+p] = byte(v)
		}
	}
	return buf
}

// g2 computes the intensity autocorrelation g2(tau) averaged over
// pixels: <I(t)I(t+tau)> / <I>^2.
func g2(frames []byte) []float64 {
	out := make([]float64, nTaus)
	for tau := 0; tau < nTaus; tau++ {
		var num, denomSq float64
		var count int
		for t := 0; t+tau < nFrames; t++ {
			for p := 0; p < pixels; p++ {
				i1 := float64(frames[t*pixels+p])
				i2 := float64(frames[(t+tau)*pixels+p])
				num += i1 * i2
				denomSq += i1
				count++
			}
		}
		mean := denomSq / float64(count)
		out[tau] = num / float64(count) / (mean * mean)
	}
	return out
}

func main() {
	// Out-of-band transfer fabric: beamline and HPC endpoints with a
	// fast ESnet-like link (time-compressed).
	transfers := dataref.NewFabric()
	transfers.AddEndpoint("aps-beamline")
	transfers.AddEndpoint("alcf-hpc")
	transfers.SetLink("aps-beamline", "alcf-hpc",
		dataref.LinkModel{Latency: 20 * time.Millisecond, BytesPerSecond: 5e9})
	transfers.TimeScale = 1.0

	fab, err := core.NewFabric(core.FabricConfig{Service: service.Config{}})
	if err != nil {
		log.Fatal(err)
	}
	defer fab.Close()
	hpc, err := fab.AddEndpoint(core.EndpointOptions{
		Name: "alcf-hpc", Owner: "xpcs",
		Managers: 2, WorkersPerManager: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	// corr: fetch the staged frames by reference, correlate.
	hpc.Runtime.Register(corrBody, func(ctx context.Context, payload []byte) ([]byte, error) {
		var ref dataref.Ref
		if _, err := serial.Deserialize(payload, &ref); err != nil {
			return nil, err
		}
		frames, err := transfers.Fetch(ref)
		if err != nil {
			return nil, err
		}
		return serial.Serialize(g2(frames))
	})

	fc := fab.Client("xpcs")
	ctx := context.Background()
	fnID, err := fc.RegisterFunction(ctx, "xpcs_corr", corrBody, types.ContainerSpec{}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// The beamline: acquisitions arrive on a cadence; each triggers
	// stage -> invoke with the reference (event-based processing, §6).
	const acquisitions = 6
	fmt.Printf("beamline producing %d acquisitions of %d frames (%d B each)...\n",
		acquisitions, nFrames, nFrames*pixels)
	var wg sync.WaitGroup
	results := make([][]float64, acquisitions)
	for a := 0; a < acquisitions; a++ {
		frames := synthesizeFrames(int64(a + 1))
		name := fmt.Sprintf("acq-%03d.imm", a)
		ref, err := transfers.Put("aps-beamline", name, frames)
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(a int, ref dataref.Ref) {
			defer wg.Done()
			// 1. Stage the dataset near the compute (out of band).
			staged, err := transfers.Stage(ref, "alcf-hpc")
			if err != nil {
				log.Println("stage:", err)
				return
			}
			// 2. Invoke corr with only the reference (tiny payload).
			payload, err := serial.Serialize(staged)
			if err != nil {
				log.Println(err)
				return
			}
			id, _, err := fc.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: hpc.ID, Payload: payload})
			if err != nil {
				log.Println(err)
				return
			}
			res, err := fc.GetResult(ctx, id)
			if err != nil || res.Err != nil {
				log.Println("corr:", err, res.Err)
				return
			}
			var curve []float64
			if _, err := res.Value(&curve); err != nil {
				log.Println(err)
				return
			}
			results[a] = curve
		}(a, ref)
		time.Sleep(50 * time.Millisecond) // detector cadence
	}
	wg.Wait()

	transfersN, bytesMoved, modeled := transfers.Stats()
	fmt.Printf("\nstaged %d datasets, %d bytes out of band (modeled transfer time %v)\n",
		transfersN, bytesMoved, modeled.Round(time.Millisecond))
	fmt.Printf("payload through funcX service per task: ~%d bytes (a data reference)\n\n",
		approxRefSize())

	fmt.Println("g2(tau) per acquisition (decay => dynamics resolved):")
	fmt.Printf("%-6s", "tau")
	for a := 0; a < acquisitions; a++ {
		fmt.Printf("  acq%03d", a)
	}
	fmt.Println()
	for tau := 0; tau < nTaus; tau++ {
		fmt.Printf("%-6.3f", float64(tau)/frameRate)
		for a := 0; a < acquisitions; a++ {
			if results[a] == nil {
				fmt.Printf("  %6s", "-")
				continue
			}
			fmt.Printf("  %6.4f", results[a][tau])
		}
		fmt.Println()
	}
}

// approxRefSize reports the serialized size of a Ref, to contrast with
// the staged dataset size.
func approxRefSize() int {
	ref := dataref.Ref{Endpoint: "alcf-hpc", Name: "acq-000.imm", Size: nFrames * pixels, Checksum: "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"}
	b, err := serial.Serialize(ref)
	if err != nil {
		return binary.MaxVarintLen64 // unreachable; keep the compiler honest
	}
	return len(b)
}
