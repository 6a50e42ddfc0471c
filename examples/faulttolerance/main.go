// faulttolerance demonstrates the reliability machinery of paper §4.1,
// §4.3 and §5.4 live: a stream of tasks survives (1) an abrupt manager
// kill — the agent's watchdog detects the heartbeat loss and
// re-executes the lost tasks — and (2) an endpoint disconnect — tasks
// wait in the service's reliable queue and flow again after the agent
// repeats registration. Every submitted task completes despite both
// failures (at-least-once semantics).
//
//	go run ./examples/faulttolerance
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"funcx/internal/core"
	"funcx/internal/fx"
	"funcx/internal/sdk"
	"funcx/internal/service"
	"funcx/internal/types"
)

func main() {
	fab, err := core.NewFabric(core.FabricConfig{
		Service: service.Config{
			HeartbeatPeriod: 50 * time.Millisecond,
			HeartbeatMisses: 3,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fab.Close()
	ep, err := fab.AddEndpoint(core.EndpointOptions{
		Name: "flaky-cluster", Owner: "ops",
		Managers: 2, WorkersPerManager: 4,
		PrewarmWorkers:  4,
		HeartbeatPeriod: 50 * time.Millisecond,
		HeartbeatMisses: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fc := fab.Client("ops")
	ctx := context.Background()
	fnID, err := fc.RegisterFunction(ctx, "sleep", fx.BodySleep, types.ContainerSpec{}, nil)
	if err != nil {
		log.Fatal(err)
	}

	const total = 120
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		completed int
	)
	fmt.Printf("streaming %d x 200ms tasks at 2 managers...\n", total)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, _, err := fc.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID, Payload: fx.SleepArgs(0.2)})
			if err != nil {
				log.Println("submit:", err)
				return
			}
			res, err := fc.GetResult(ctx, id)
			if err != nil || res.Err != nil {
				log.Println("result:", err, res.Err)
				return
			}
			mu.Lock()
			completed++
			mu.Unlock()
		}()
		time.Sleep(25 * time.Millisecond)

		switch i {
		case 30:
			fmt.Println("!! killing manager 0 (abrupt, in-flight tasks lost)")
			if _, err := ep.KillManager(0); err != nil {
				log.Fatal(err)
			}
		case 60:
			fmt.Println("-> starting replacement manager")
			if _, err := ep.AddManager(); err != nil {
				log.Fatal(err)
			}
		case 80:
			fmt.Println("!! disconnecting endpoint from the service")
			ep.Disconnect()
		case 100:
			fmt.Println("-> reconnecting endpoint (repeats registration)")
			if err := ep.Reconnect(); err != nil {
				log.Fatal(err)
			}
		}
	}
	wg.Wait()

	_, _, requeuedByAgent := ep.Agent.Stats()
	fwd, _ := fab.Service.Forwarder(ep.ID)
	_, _, requeuedByForwarder := fwd.Stats()
	fmt.Printf("\ncompleted %d/%d tasks\n", completed, total)
	fmt.Printf("re-executed after manager loss (agent watchdog): %d\n", requeuedByAgent)
	fmt.Printf("returned to queue on endpoint disconnect (forwarder): %d\n", requeuedByForwarder)
	if completed == total {
		fmt.Println("all tasks survived both failures: at-least-once semantics hold")
	}
}
