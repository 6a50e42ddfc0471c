// metadata reproduces the Xtract case study (paper §2, §6): scalable
// metadata extraction executed "near" the data. Two endpoints stand in
// for two storage sites; files are assigned to the endpoint co-located
// with them, extractor functions fan out across both, and the derived
// metadata flows back through the service.
//
//	go run ./examples/metadata
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"
	"time"

	"funcx/internal/core"
	"funcx/internal/sdk"
	"funcx/internal/serial"
	"funcx/internal/service"
	"funcx/internal/types"
)

// extractorBody is the registered extractor: given a file's contents
// it identifies type-specific metadata (keywords for text, dimensions
// for tables), like Xtract's general and specialized extractors.
var extractorBody = []byte(`def xtract_metadata(name, contents):
    from xtract_sdk import extractors
    return extractors.auto(name, contents)
`)

// fileRecord is an extractor invocation input.
type fileRecord struct {
	Name     string `json:"name"`
	Contents string `json:"contents"`
}

// metadataOut is the extractor output.
type metadataOut struct {
	Name     string   `json:"name"`
	Kind     string   `json:"kind"`
	Keywords []string `json:"keywords,omitempty"`
	Rows     int      `json:"rows,omitempty"`
	Cols     int      `json:"cols,omitempty"`
	Site     string   `json:"site"`
}

// extract is the Go implementation: classify the file and derive
// metadata.
func extract(site string, f fileRecord) metadataOut {
	out := metadataOut{Name: f.Name, Site: site}
	switch {
	case strings.HasSuffix(f.Name, ".csv"):
		out.Kind = "table"
		rows := strings.Split(strings.TrimSpace(f.Contents), "\n")
		out.Rows = len(rows)
		if len(rows) > 0 {
			out.Cols = len(strings.Split(rows[0], ","))
		}
	default:
		out.Kind = "text"
		seen := map[string]int{}
		for _, w := range strings.Fields(strings.ToLower(f.Contents)) {
			if len(w) > 4 {
				seen[w]++
			}
		}
		type kv struct {
			w string
			n int
		}
		var kws []kv
		for w, n := range seen {
			kws = append(kws, kv{w, n})
		}
		sort.Slice(kws, func(i, j int) bool {
			if kws[i].n != kws[j].n {
				return kws[i].n > kws[j].n
			}
			return kws[i].w < kws[j].w
		})
		for i := 0; i < len(kws) && i < 3; i++ {
			out.Keywords = append(out.Keywords, kws[i].w)
		}
	}
	return out
}

func main() {
	fab, err := core.NewFabric(core.FabricConfig{Service: service.Config{}})
	if err != nil {
		log.Fatal(err)
	}
	defer fab.Close()
	fc := fab.Client("xtract")
	ctx := context.Background()

	// Two sites, each with its own endpoint deployed next to the data.
	sites := []string{"edge-repo-A", "hpc-store-B"}
	endpoints := make(map[string]*core.Endpoint, len(sites))
	for _, site := range sites {
		ep, err := fab.AddEndpoint(core.EndpointOptions{
			Name: site, Owner: "xtract",
			Managers: 1, WorkersPerManager: 4,
			BatchDispatch: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		site := site
		ep.Runtime.Register(extractorBody, func(ctx context.Context, payload []byte) ([]byte, error) {
			var f fileRecord
			if _, err := serial.Deserialize(payload, &f); err != nil {
				return nil, err
			}
			time.Sleep(3 * time.Millisecond) // extractor work (3ms–15s in §2)
			return serial.Serialize(extract(site, f))
		})
		endpoints[site] = ep
	}

	fnID, err := fc.RegisterFunction(ctx, "xtract_metadata", extractorBody, types.ContainerSpec{}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// The corpus: files live at specific sites; extraction runs there.
	corpus := map[string][]fileRecord{
		"edge-repo-A": {
			{Name: "beamline-log.txt", Contents: "detector calibration drift observed during detector warmup calibration cycles"},
			{Name: "samples.csv", Contents: "id,element,temp\n1,Fe,300\n2,Cu,295\n3,Ni,310"},
		},
		"hpc-store-B": {
			{Name: "run-notes.txt", Contents: "tomography reconstruction artifacts reduced after reconstruction parameter sweep tomography"},
			{Name: "scan-index.csv", Contents: "scan,frames\n811,1200\n812,1450"},
		},
	}

	// Fan extraction out near the data, collect centrally.
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []metadataOut
	)
	for site, files := range corpus {
		for _, f := range files {
			wg.Add(1)
			go func(site string, f fileRecord) {
				defer wg.Done()
				payload, err := serial.Serialize(f)
				if err != nil {
					log.Println(err)
					return
				}
				id, _, err := fc.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: endpoints[site].ID, Payload: payload})
				if err != nil {
					log.Println(err)
					return
				}
				res, err := fc.GetResult(ctx, id)
				if err != nil || res.Err != nil {
					log.Println(err, res.Err)
					return
				}
				var md metadataOut
				if _, err := res.Value(&md); err != nil {
					log.Println(err)
					return
				}
				mu.Lock()
				results = append(results, md)
				mu.Unlock()
			}(site, f)
		}
	}
	wg.Wait()

	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	fmt.Println("extracted metadata (computed at the data's site):")
	for _, md := range results {
		switch md.Kind {
		case "table":
			fmt.Printf("  %-18s table  %dx%d            @ %s\n", md.Name, md.Rows, md.Cols, md.Site)
		default:
			fmt.Printf("  %-18s text   keywords=%v @ %s\n", md.Name, md.Keywords, md.Site)
		}
	}
}
