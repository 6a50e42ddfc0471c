// hep reproduces the high-energy-physics case study (paper §2, §6): a
// Coffea-style columnar analysis where a query over millions of
// collision events is decomposed into partial-histogram subtasks
// dispatched as funcX requests across two endpoints simultaneously —
// the paper analyzed 300M events in nine minutes over two endpoints
// with heterogeneous resources.
//
// The events are synthetic (seeded) dimuon candidates; each subtask
// computes a real invariant-mass histogram over its partition and the
// client folds the partials into the final spectrum.
//
//	go run ./examples/hep
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"

	"funcx/internal/core"
	"funcx/internal/sdk"
	"funcx/internal/serial"
	"funcx/internal/service"
	"funcx/internal/types"
)

// histogramBody is the registered analysis function: one partition of
// events in, one partial histogram out.
var histogramBody = []byte(`def dimuon_mass_histogram(partition):
    import awkward as ak
    events = open_partition(partition)
    mass = (events.mu1 + events.mu2).mass
    return hist(mass, bins=30, range=(60, 120))
`)

// partitionSpec tells the function which slice of the dataset to scan.
type partitionSpec struct {
	Seed   int64 `json:"seed"`
	Events int   `json:"events"`
}

// histogram is the partial result: counts over [60,120) GeV in 2 GeV
// bins.
type histogram struct {
	Bins   []int `json:"bins"`
	Events int   `json:"events"`
}

const (
	massLo, massHi = 60.0, 120.0
	nBins          = 30
)

// scanPartition generates the partition's events and histograms the
// dimuon invariant mass: a Z-peak Gaussian near 91 GeV over a falling
// combinatorial background.
func scanPartition(spec partitionSpec) histogram {
	rng := rand.New(rand.NewSource(spec.Seed))
	h := histogram{Bins: make([]int, nBins), Events: spec.Events}
	for i := 0; i < spec.Events; i++ {
		var mass float64
		if rng.Float64() < 0.6 {
			mass = 91.2 + rng.NormFloat64()*2.5 // Z resonance
		} else {
			mass = massLo + rng.ExpFloat64()*25 // background
		}
		if mass < massLo || mass >= massHi {
			continue
		}
		bin := int((mass - massLo) / (massHi - massLo) * nBins)
		h.Bins[bin]++
	}
	return h
}

func main() {
	fab, err := core.NewFabric(core.FabricConfig{Service: service.Config{}})
	if err != nil {
		log.Fatal(err)
	}
	defer fab.Close()
	fc := fab.Client("physicist")
	ctx := context.Background()

	// Two endpoints with heterogeneous capacity, used simultaneously
	// (paper §6: "simultaneously using two funcX endpoints").
	campus, err := fab.AddEndpoint(core.EndpointOptions{
		Name: "campus-cluster", Owner: "physicist",
		Managers: 2, WorkersPerManager: 4, BatchDispatch: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	hpc, err := fab.AddEndpoint(core.EndpointOptions{
		Name: "hpc-backfill", Owner: "physicist",
		Managers: 4, WorkersPerManager: 4, BatchDispatch: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	impl := func(ctx context.Context, payload []byte) ([]byte, error) {
		var spec partitionSpec
		if _, err := serial.Deserialize(payload, &spec); err != nil {
			return nil, err
		}
		return serial.Serialize(scanPartition(spec))
	}
	campus.Runtime.Register(histogramBody, impl)
	hpc.Runtime.Register(histogramBody, impl)

	fnID, err := fc.RegisterFunction(ctx, "dimuon_mass_histogram", histogramBody, types.ContainerSpec{}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// 3M synthetic events in 60 partitions, split 1/3 campus : 2/3 HPC
	// by capacity.
	const (
		totalEvents = 3_000_000
		partitions  = 60
	)
	perPart := totalEvents / partitions
	start := time.Now()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		final = histogram{Bins: make([]int, nBins)}
		done  int
	)
	for p := 0; p < partitions; p++ {
		epID := hpc.ID
		if p%3 == 0 {
			epID = campus.ID
		}
		wg.Add(1)
		go func(p int, epID types.EndpointID) {
			defer wg.Done()
			payload, err := serial.Serialize(partitionSpec{Seed: int64(p + 1), Events: perPart})
			if err != nil {
				log.Println(err)
				return
			}
			id, _, err := fc.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: epID, Payload: payload})
			if err != nil {
				log.Println(err)
				return
			}
			res, err := fc.GetResult(ctx, id)
			if err != nil || res.Err != nil {
				log.Println(err, res.Err)
				return
			}
			var part histogram
			if _, err := res.Value(&part); err != nil {
				log.Println(err)
				return
			}
			mu.Lock()
			for i, c := range part.Bins {
				final.Bins[i] += c
			}
			final.Events += part.Events
			done++
			mu.Unlock()
		}(p, epID)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rate := float64(final.Events) / elapsed.Seconds()
	fmt.Printf("analyzed %d events in %v (%.2f µs/event; paper: 1.9 µs/event at 300M events)\n",
		final.Events, elapsed.Round(time.Millisecond), 1e6/rate)
	fmt.Printf("partitions completed: %d/%d across 2 endpoints\n\n", done, partitions)

	// Render the spectrum.
	maxBin := 0
	for _, c := range final.Bins {
		if c > maxBin {
			maxBin = c
		}
	}
	fmt.Println("dimuon invariant mass spectrum (60–120 GeV):")
	for i, c := range final.Bins {
		lo := massLo + float64(i)*(massHi-massLo)/nBins
		bar := strings.Repeat("#", int(math.Round(40*float64(c)/float64(maxBin))))
		fmt.Printf("%6.1f GeV %8d %s\n", lo, c, bar)
	}
	fmt.Println("\n(the Z peak at ~91 GeV emerges from partial histograms folded across endpoints)")
}
