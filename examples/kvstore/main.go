// kvstore: the paper's running example — a Redis-like key-value store
// whose values travel and are stored zero-copy (§4.5). Run it over the
// kernel-bypass libOS (default) or the legacy kernel libOS to see the
// §3.2 copy/syscall overheads appear:
//
//	go run ./examples/kvstore            # catnip (kernel-bypass)
//	go run ./examples/kvstore -posix     # catnap (legacy kernel path)
package main

import (
	"flag"
	"fmt"
	"log"

	demi "demikernel"
	"demikernel/internal/apps/kv"
)

func main() {
	posix := flag.Bool("posix", false, "run over the legacy kernel libOS (catnap)")
	flag.Parse()

	cluster := demi.NewCluster(7)
	kind := demi.Catnip
	if *posix {
		kind = demi.Catnap
	}
	srvNode := cluster.MustSpawn(kind, demi.WithHost(1))
	cliNode := cluster.MustSpawn(kind, demi.WithHost(2))

	_, stopServer, err := kv.Serve(srvNode.Libs(), srvNode.Mesh(), srvNode.Shards(), &cluster.Model, 6379)
	if err != nil {
		log.Fatal(err)
	}
	defer stopServer()
	client, stopClient, err := kv.Dial(cliNode.LibOS, srvNode.Shards(), cluster.Router().Dialer(cliNode, srvNode, 6379))
	if err != nil {
		log.Fatal(err)
	}
	defer stopClient()

	// A 4KB value: the size the paper uses for its copy-overhead claim.
	value := make([]byte, 4096)
	for i := range value {
		value[i] = byte(i)
	}
	setCost, err := client.Set("user:1000", value)
	if err != nil {
		log.Fatal(err)
	}
	got, getCost, found, err := client.Get("user:1000")
	if err != nil || !found {
		log.Fatalf("get: found=%v err=%v", found, err)
	}
	fmt.Printf("libOS=%s  SET 4KB: %v   GET 4KB: %v   (value intact: %v)\n",
		srvNode.Name(), setCost, getCost, len(got) == len(value))

	if *posix {
		ctr := cliNode.Kernel.Counters()
		fmt.Printf("legacy path paid: %d syscall crossings, %d bytes copied\n",
			ctr.SyscallCrossings, ctr.BytesCopied)
	} else {
		fmt.Println("kernel-bypass path: 0 syscalls, 0 charged payload copies")
	}
}
