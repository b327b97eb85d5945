// Command fragsim boots one VM under a chosen profile and runs one
// workload, printing the elapsed virtual time and DSM statistics — a
// quick way to poke at the system.
//
// Usage:
//
//	fragsim -profile fragvisor -vcpus 4 -workload IS -scale 0.1
//	fragsim -profile giantvm -vcpus 4 -workload lemp:250ms
//	fragsim -profile overcommit -vcpus 4 -workload serverless
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"repro/fragvisor"
)

func main() {
	profile := flag.String("profile", "fragvisor", "fragvisor | giantvm | overcommit")
	vcpus := flag.Int("vcpus", 4, "vCPU count")
	wl := flag.String("workload", "EP", "NPB kernel name, lemp:<duration>, or serverless")
	scale := flag.Float64("scale", 0.1, "workload scale")
	mem := flag.Int64("mem", 16<<30, "guest memory bytes")
	flag.Parse()

	if err := checkFlags(*vcpus, *mem, *scale, *wl); err != nil {
		fmt.Fprintln(os.Stderr, "fragsim:", err)
		os.Exit(1)
	}
	var vm *fragvisor.VM
	switch *profile {
	case "fragvisor":
		vm = fragvisor.NewTestbed(*vcpus).NewFragVisorVM(*vcpus, *mem)
	case "giantvm":
		vm = fragvisor.NewTestbed(*vcpus).NewGiantVM(*vcpus, *mem)
	case "overcommit":
		vm = fragvisor.NewOvercommitVM(*vcpus, 1, *mem)
	default:
		fmt.Fprintf(os.Stderr, "unknown profile %q\n", *profile)
		os.Exit(1)
	}
	defer vm.Env.Close()

	switch {
	case *wl == "serverless":
		res := fragvisor.RunServerless(vm, *scale)
		fmt.Printf("download=%v extract=%v detect=%v total=%v\n",
			res.Download, res.Extract, res.Detect, res.Total)
	case strings.HasPrefix(*wl, "lemp:"):
		d, _ := time.ParseDuration(strings.TrimPrefix(*wl, "lemp:")) // checked by checkFlags
		res := fragvisor.RunLEMP(vm, fragvisor.Time(d.Nanoseconds()), 50)
		fmt.Printf("throughput=%.2f req/s mean-latency=%v\n", res.Throughput, res.MeanLatency)
	default:
		elapsed := fragvisor.RunNPB(vm, *wl, *scale)
		fmt.Printf("%s x%d on %s: %v\n", *wl, *vcpus, *profile, elapsed)
	}
	st := vm.DSM.TotalStats()
	fmt.Printf("dsm: read-faults=%d write-faults=%d local-hits=%d invalidations=%d bytes-moved=%d\n",
		st.ReadFaults, st.WriteFaults, st.LocalHits, st.Invalidations, st.BytesMoved)
}

// checkFlags rejects the flag values the VM or workload cannot run: fewer
// than one vCPU (two for LEMP, NGINX plus a PHP worker), guest memory
// that is not positive, a scale that is not finite and > 0, and a
// workload that is not an NPB kernel, lemp:<duration> or serverless.
func checkFlags(vcpus int, mem int64, scale float64, wl string) error {
	if vcpus < 1 {
		return fmt.Errorf("-vcpus %d: want a count >= 1", vcpus)
	}
	if mem <= 0 {
		return fmt.Errorf("-mem %d: want a positive byte count", mem)
	}
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("-scale %v: want a finite value > 0", scale)
	}
	switch {
	case wl == "serverless":
	case strings.HasPrefix(wl, "lemp:"):
		if _, err := time.ParseDuration(strings.TrimPrefix(wl, "lemp:")); err != nil {
			return fmt.Errorf("-workload %s: %v", wl, err)
		}
		if vcpus < 2 {
			return fmt.Errorf("-workload %s needs -vcpus >= 2, got %d", wl, vcpus)
		}
	case !slices.Contains(fragvisor.NPBKernels(), wl):
		return fmt.Errorf("-workload %q: want an NPB kernel (%s), lemp:<duration> or serverless",
			wl, strings.Join(fragvisor.NPBKernels(), ", "))
	}
	return nil
}
