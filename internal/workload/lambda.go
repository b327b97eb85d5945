package workload

import (
	"fmt"

	"repro/internal/hypervisor"
	"repro/internal/sim"
	"repro/internal/vcpu"
)

// dbAddr is the external-network address of the picture database the
// lambda functions download from.
const dbAddr = -2

// clientAddr is the external-network address of the FaaS client.
const lambdaClientAddr = -3

// The picture-processing function of the OpenLambda serverless
// experiment (§7.2 / Fig 13): on each vCPU an OpenLambda worker runs a
// function that (1) downloads a compressed picture archive from a
// database on the same network, (2) extracts it into fresh memory, and
// (3) runs face detection. Sizes and compute times are at scale 1 and
// native speed.
const (
	lambdaZipBytes     = 4 << 20  // compressed archive size
	lambdaExtractBytes = 24 << 20 // extracted data written to fresh pages
	lambdaExtractCPU   = 150 * sim.Millisecond
	lambdaDetectCPU    = 1500 * sim.Millisecond
)

// LambdaResult reports the mean per-phase and total server-side times
// across workers, as the paper's Fig 13 breakdown does.
type LambdaResult struct {
	Download sim.Time
	Extract  sim.Time
	Detect   sim.Time
	Total    sim.Time
}

// RunOpenLambda triggers one function invocation per vCPU in parallel (the
// paper varies parallel requests with the vCPU count) and returns the mean
// phase breakdown.
func RunOpenLambda(vm *hypervisor.VM, scale float64) LambdaResult {
	if scale <= 0 {
		panic("workload: scale must be positive")
	}
	n := vm.NVCPU()
	env := vm.Env
	db := vm.Net.NewClient(dbAddr)
	client := vm.Net.NewClient(lambdaClientAddr)

	zipBytes := int(float64(lambdaZipBytes) * scale)
	if zipBytes < 1 {
		zipBytes = 1
	}
	extractBytes := int64(float64(lambdaExtractBytes) * scale)

	// The database serves one archive per fetch request.
	env.Spawn("picture-db", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			fromVCPU, _ := db.Recv(p)
			db.Send(p, fromVCPU, zipBytes)
		}
	})

	download := make([]sim.Time, n)
	extract := make([]sim.Time, n)
	detect := make([]sim.Time, n)
	total := make([]sim.Time, n)
	for i := 0; i < n; i++ {
		vm.Run(i, fmt.Sprintf("ol-worker-%d", i), func(ctx *vcpu.Ctx) {
			// Wait for the client's trigger.
			vm.Net.Recv(ctx)
			start := ctx.P.Now()

			// Phase 1: download the archive from the database.
			vm.Net.Send(ctx, dbAddr, 256)
			vm.Net.Recv(ctx)
			download[i] = ctx.P.Now() - start

			// Phase 2: extract into freshly allocated memory.
			t := ctx.P.Now()
			region, err := vm.Kernel.Alloc(ctx.P, ctx.Node(), ctx.ID(), extractBytes)
			if err != nil {
				panic(err) // the function cannot run without its working set
			}
			ctx.Compute(sim.Time(float64(lambdaExtractCPU) * scale))
			extract[i] = ctx.P.Now() - t

			// Phase 3: face detection over the extracted pictures.
			t = ctx.P.Now()
			computed := sim.Time(0)
			totalDetect := sim.Time(float64(lambdaDetectCPU) * scale)
			for computed < totalDetect {
				chunk := tickInterval
				if computed+chunk > totalDetect {
					chunk = totalDetect - computed
				}
				ctx.Compute(chunk)
				computed += chunk
				vm.Kernel.Tick(ctx.P, ctx.Node(), ctx.ID())
			}
			detect[i] = ctx.P.Now() - t
			vm.Kernel.Free(ctx.P, ctx.Node(), ctx.ID(), region)

			total[i] = ctx.P.Now() - start
			// Report the face count to the client.
			vm.Net.Send(ctx, lambdaClientAddr, 64)
		})
	}

	// The client triggers all functions in parallel and collects results.
	env.Spawn("ol-client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			client.Send(p, i, 128)
		}
		for i := 0; i < n; i++ {
			client.Recv(p)
		}
	})
	env.Run()

	var res LambdaResult
	for i := 0; i < n; i++ {
		res.Download += download[i]
		res.Extract += extract[i]
		res.Detect += detect[i]
		res.Total += total[i]
	}
	res.Download /= sim.Time(n)
	res.Extract /= sim.Time(n)
	res.Detect /= sim.Time(n)
	res.Total /= sim.Time(n)
	return res
}
