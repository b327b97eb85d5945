package workload

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hypervisor"
	"repro/internal/sim"
	"repro/internal/vcpu"
)

// The fixed shape of the LEMP stack, as in the paper.
const (
	// lempPageBytes is the generated response size (2 MB, the average
	// web page size the paper cites).
	lempPageBytes = 2 << 20
	// lempConcurrency is the number of concurrent connections (AB -c).
	lempConcurrency = 10
	// lempAllocsPerMs is the PHP small-allocation rate while processing
	// — string manipulation workloads allocate constantly.
	lempAllocsPerMs = 4
)

// LEMPConfig parameterizes the LEMP (Linux/NGINX/PHP) experiment of §7.2 /
// Fig 12: NGINX runs on vCPU0, one PHP-FPM worker runs on every other
// vCPU, and an ApacheBench-style client with lempConcurrency connections
// issues requests whose server-side processing time is configurable.
type LEMPConfig struct {
	// Processing is the PHP compute time per request at native speed
	// (25 ms – 500 ms in the paper).
	Processing sim.Time
	// Requests is the total request count (AB -n).
	Requests int
}

// DefaultLEMP matches the paper: 100 requests.
func DefaultLEMP(processing sim.Time) LEMPConfig {
	return LEMPConfig{Processing: processing, Requests: 100}
}

// LEMPResult reports client-observed performance.
type LEMPResult struct {
	Throughput  float64 // requests per second
	MeanLatency sim.Time
	Elapsed     sim.Time
}

// RunLEMP drives the full stack to completion and reports the client's
// view. The VM must have at least 2 vCPUs (NGINX + one PHP worker).
func RunLEMP(vm *hypervisor.VM, cfg LEMPConfig) LEMPResult {
	n := vm.NVCPU()
	if n < 2 {
		panic("workload: LEMP needs at least 2 vCPUs")
	}
	if cfg.Requests <= 0 {
		panic("workload: LEMP needs requests")
	}
	env := vm.Env
	k := vm.Kernel
	reqSock := k.NewSocket()  // NGINX -> PHP workers (php-fpm listen socket)
	respSock := k.NewSocket() // PHP workers -> NGINX

	// PHP-FPM workers on vCPUs 1..n-1.
	for w := 1; w < n; w++ {
		w := w
		vm.Run(w, fmt.Sprintf("php-fpm-%d", w), func(ctx *vcpu.Ctx) {
			for {
				reqBytes, _ := reqSock.Recv(ctx.P, ctx.Node())
				if reqBytes <= 1 { // 1-byte poison message: shut down
					return
				}
				// Processing: PHP string manipulation with its
				// allocation churn.
				computed := sim.Time(0)
				carry := 0.0
				for computed < cfg.Processing {
					chunk := sim.Millisecond
					if computed+chunk > cfg.Processing {
						chunk = cfg.Processing - computed
					}
					ctx.Compute(chunk)
					computed += chunk
					carry += lempAllocsPerMs * chunk.Seconds() * 1000
					for ; carry >= 1; carry-- {
						k.AllocFast(ctx.P, ctx.Node(), ctx.ID())
					}
				}
				vm.Kernel.Tick(ctx.P, ctx.Node(), ctx.ID())
				respSock.Send(ctx.P, ctx.Node(), ctx.ID(), 0, lempPageBytes)
			}
		})
	}

	// NGINX dispatcher thread on vCPU0: accepts client requests and
	// forwards them to workers round-robin.
	remainingDispatch := cfg.Requests
	vm.Run(0, "nginx-dispatch", func(ctx *vcpu.Ctx) {
		next := 1
		for ; remainingDispatch > 0; remainingDispatch-- {
			vm.Net.Recv(ctx)
			k.Tick(ctx.P, ctx.Node(), ctx.ID())
			reqSock.Send(ctx.P, ctx.Node(), ctx.ID(), next, 1024)
			if next++; next >= n {
				next = 1
			}
		}
		// Shut the workers down with 1-byte poison messages.
		for w := 1; w < n; w++ {
			reqSock.Send(ctx.P, ctx.Node(), ctx.ID(), w, 1)
		}
	})

	// NGINX response thread on vCPU0: collects generated pages and sends
	// them to the client.
	vm.Run(0, "nginx-respond", func(ctx *vcpu.Ctx) {
		for served := 0; served < cfg.Requests; served++ {
			pageBytes, _ := respSock.Recv(ctx.P, ctx.Node())
			vm.Net.Send(ctx, cluster.ClientID, pageBytes)
		}
	})

	// ApacheBench: lempConcurrency connection workers sharing a request
	// budget. Responses are matched FIFO — all responses are
	// equal-sized, so per-connection accounting is preserved in
	// aggregate.
	client := vm.Net.NewClient(cluster.ClientID)
	issued := 0
	completed := 0
	var latencySum sim.Time
	start, end := env.Now(), sim.Time(0)
	for conn := 0; conn < lempConcurrency; conn++ {
		env.Spawn(fmt.Sprintf("ab-conn-%d", conn), func(p *sim.Proc) {
			for issued < cfg.Requests {
				issued++
				sent := p.Now()
				client.Send(p, 0, 500)
				client.Recv(p)
				latencySum += p.Now() - sent
				completed++
			}
			end = p.Now()
		})
	}
	env.Run()

	elapsed := end - start
	res := LEMPResult{Elapsed: elapsed}
	if completed > 0 {
		res.Throughput = float64(completed) / elapsed.Seconds()
		res.MeanLatency = latencySum / sim.Time(completed)
	}
	return res
}
