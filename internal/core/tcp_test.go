package core

import (
	"context"
	"testing"
	"time"

	"funcx/internal/container"
	"funcx/internal/endpoint"
	"funcx/internal/fx"
	"funcx/internal/manager"
	"funcx/internal/sdk"
	"funcx/internal/serial"
	"funcx/internal/service"
	"funcx/internal/types"
)

// TestTCPDeployment exercises the cmd/funcx-service + cmd/funcx-endpoint
// path: REST over real TCP, forwarder over TCP, managers over TCP —
// the full multi-process wire stack inside one test.
func TestTCPDeployment(t *testing.T) {
	fab, err := NewFabric(FabricConfig{Service: service.Config{
		ForwarderNetwork: "tcp",
		HeartbeatPeriod:  100 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	client := fab.Client("alice")
	ctx := context.Background()

	// Register via REST, exactly as funcx-endpoint does.
	reg, err := client.NewEndpoint(ctx, sdk.EndpointSpec{Name: "tcp-ep", Description: "over the wire"})
	if err != nil {
		t.Fatal(err)
	}
	if reg.ForwarderNetwork != "tcp" {
		t.Fatalf("forwarder network = %s", reg.ForwarderNetwork)
	}

	rt := fx.NewRuntime()
	rt.RegisterBuiltins()
	agent := endpoint.New(endpoint.Config{
		ID:              reg.EndpointID,
		ServiceNetwork:  reg.ForwarderNetwork,
		ServiceAddr:     reg.ForwarderAddr,
		Token:           reg.EndpointToken,
		ListenNetwork:   "tcp",
		HeartbeatPeriod: 100 * time.Millisecond,
		BatchDispatch:   true,
	})
	if err := agent.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer agent.Stop()

	network, addr := agent.ManagerAddr()
	m := manager.New(manager.Config{
		AgentNetwork: network, AgentAddr: addr,
		MaxWorkers: 2, HeartbeatPeriod: 100 * time.Millisecond,
		Runtime:    rt,
		Containers: container.NewRuntime(container.Config{System: "ec2", TimeScale: 0}),
	})
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	fnID, err := client.RegisterFunction(ctx, "echo", fx.BodyEcho, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := serial.Serialize("over-tcp")
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: reg.EndpointID, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.GetResult(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	var out string
	if _, err := res.Value(&out); err != nil || out != "over-tcp" {
		t.Fatalf("value = %q, %v", out, err)
	}

	// A wrong endpoint token is rejected by the forwarder.
	bad := endpoint.New(endpoint.Config{
		ID:             reg.EndpointID,
		ServiceNetwork: reg.ForwarderNetwork,
		ServiceAddr:    reg.ForwarderAddr,
		Token:          "stolen-token",
		ListenNetwork:  "tcp",
	})
	if err := bad.Start(ctx); err == nil {
		bad.Stop()
		t.Fatal("agent with bad token registered")
	}
}
