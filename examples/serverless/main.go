// Serverless: the paper's OpenLambda scenario (§7.2, Fig 13). Each vCPU
// of the Aggregate VM runs one FaaS worker whose function downloads a
// picture archive from a database, extracts it, and runs face detection.
// Detection dominates and scales with the borrowed cores, so the
// Aggregate VM beats both overcommitment and the GiantVM baseline.
package main

import (
	"fmt"

	"repro/fragvisor"
)

func main() {
	const scale = 0.2
	show := func(name string, r fragvisor.LambdaResult) {
		fmt.Printf("%-11s download=%-10v extract=%-10v detect=%-10v total=%v\n",
			name, r.Download, r.Extract, r.Detect, r.Total)
	}
	frag := fragvisor.RunServerless(fragvisor.NewTestbed(4).NewFragVisorVM(4, 16<<30), scale)
	giant := fragvisor.RunServerless(fragvisor.NewTestbed(4).NewGiantVM(4, 16<<30), scale)
	oc := fragvisor.RunServerless(fragvisor.NewOvercommitVM(4, 1, 16<<30), scale)

	fmt.Println("4 parallel lambda invocations (one per vCPU):")
	show("fragvisor", frag)
	show("giantvm", giant)
	show("overcommit", oc)
	fmt.Printf("\nfragvisor total speedup: %.2fx vs overcommit, %.2fx vs giantvm\n",
		float64(oc.Total)/float64(frag.Total),
		float64(giant.Total)/float64(frag.Total))
}
