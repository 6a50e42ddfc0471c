// mlinference reproduces the DLHub case study (paper §2, §6): machine
// learning inference as a service. A model is published as a funcX
// function bound to a container image holding its dependencies;
// clients then invoke it on arbitrary inputs, singly or in batches,
// and repeated deterministic inferences can be memoized.
//
// The "model" here is a real (tiny) MNIST-style classifier: a 10-class
// linear scorer over 28x28 images, deterministic and pure Go — enough
// to exercise containers, batching, and caching exactly as DLHub does.
//
//	go run ./examples/mlinference
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"funcx/internal/core"
	"funcx/internal/sdk"
	"funcx/internal/serial"
	"funcx/internal/service"
	"funcx/internal/types"
)

// mnistBody is the published model function, as DLHub would register
// it from an uploaded PyTorch/TensorFlow model.
var mnistBody = []byte(`def mnist_predict(image):
    import torch
    model = load_model('mnist-cnn')  # provided by the model container
    with torch.no_grad():
        return int(model(image).argmax())
`)

// predict is the linear scorer standing in for the published model:
// class k scores the mean intensity of row band k plus a fixed weight.
func predict(img []float64) int {
	best, bestScore := 0, math.Inf(-1)
	rows := 28
	band := len(img) / 10
	if band == 0 {
		band = 1
	}
	for k := 0; k < 10; k++ {
		score := 0.0
		for i := k * band; i < (k+1)*band && i < len(img); i++ {
			score += img[i]
		}
		score += float64(k%3) * 0.1 * float64(rows)
		if score > bestScore {
			best, bestScore = k, score
		}
	}
	return best
}

// digitImage synthesizes a deterministic "image" of a digit: pixels in
// the digit's band are bright.
func digitImage(digit int) []float64 {
	img := make([]float64, 28*28)
	band := len(img) / 10
	for i := digit * band; i < (digit+1)*band; i++ {
		img[i] = 1.0
	}
	return img
}

func main() {
	fab, err := core.NewFabric(core.FabricConfig{Service: service.Config{}})
	if err != nil {
		log.Fatal(err)
	}
	defer fab.Close()

	// A GPU-ish inference endpoint; the model container is pinned at
	// function registration, so the manager deploys (and then keeps
	// warm) the right environment.
	ep, err := fab.AddEndpoint(core.EndpointOptions{
		Name: "dlhub-gpu", Owner: "dlhub",
		Managers: 1, WorkersPerManager: 4,
		BatchDispatch: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	ep.Runtime.Register(mnistBody, func(ctx context.Context, payload []byte) ([]byte, error) {
		var img []float64
		if _, err := serial.Deserialize(payload, &img); err != nil {
			return nil, err
		}
		time.Sleep(5 * time.Millisecond) // model forward pass
		return serial.Serialize(predict(img))
	})

	fc := fab.Client("dlhub")
	ctx := context.Background()
	modelContainer := types.ContainerSpec{Tech: types.ContainerDocker, Image: "dlhub/mnist-cnn:1"}
	fnID, err := fc.RegisterFunction(ctx, "mnist_predict", mnistBody, modelContainer,
		[]types.UserID{"*"}) // published models are shared
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("published model as function:", fnID)

	// 1. Single inference.
	img := digitImage(7)
	payload, err := serial.Serialize(img)
	if err != nil {
		log.Fatal(err)
	}
	taskID, _, err := fc.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID, Payload: payload})
	if err != nil {
		log.Fatal(err)
	}
	res, err := fc.GetResult(ctx, taskID)
	if err != nil || res.Err != nil {
		log.Fatal(err, res.Err)
	}
	var digit int
	if _, err := res.Value(&digit); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single inference: predicted %d (want 7)\n", digit)

	// 2. Batched inference via Map (the optimization DLHub leans on).
	const n = 50
	images := func(yield func(any) bool) {
		for i := 0; i < n; i++ {
			if !yield(digitImage(i % 10)) {
				return
			}
		}
	}
	start := time.Now()
	h, err := fc.Map(ctx, fnID, ep.ID, images, 10, 0)
	if err != nil {
		log.Fatal(err)
	}
	outs, err := fc.MapResults(ctx, h)
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for i, out := range outs {
		var d int
		if _, err := serial.Deserialize(out, &d); err != nil {
			log.Fatal(err)
		}
		if d == i%10 {
			correct++
		}
	}
	fmt.Printf("batched inference: %d/%d correct in %v (%d batches)\n",
		correct, n, time.Since(start).Round(time.Millisecond), len(h.TaskIDs))

	// 3. Memoized repeat inference: identical input, cached result.
	t1, _, err := fc.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID, Payload: payload, Memoize: true})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := fc.GetResult(ctx, t1); err != nil {
		log.Fatal(err)
	}
	t2, _, err := fc.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID, Payload: payload, Memoize: true})
	if err != nil {
		log.Fatal(err)
	}
	res2, err := fc.GetResult(ctx, t2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repeat inference memoized: %v\n", res2.Memoized)
}
