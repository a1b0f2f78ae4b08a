package experiments

import (
	"bytes"
	"fmt"

	demi "demikernel"
	"demikernel/internal/kernel"
	"demikernel/internal/metrics"
	"demikernel/internal/simclock"
)

// runE12 reproduces §5.3: the accelerator-specific log-structured layout
// against the legacy kernel file path (page cache + journaling) on the
// same device class.
func runE12(seed int64) (*Result, error) {
	res := &Result{}
	const nRecords = 32
	sizes := []int{512, 4096, 16384}

	tbl := metrics.NewTable("E12: per-record durable write cost, log layout vs kernel FS",
		"record bytes", "catfish write p50", "kernel FS write p50", "kernel/catfish",
		"catfish dev writes", "kernel dev writes")

	type outcome struct {
		catfishP50, kernelP50 simclock.Lat
		catfishW, kernelW     int64
	}
	outcomes := map[int]outcome{}

	for _, size := range sizes {
		payload := bytes.Repeat([]byte{0xCD}, size)

		// Demikernel storage libOS: push = durable append to the log.
		c := demi.NewCluster(seed)
		node, err := c.Spawn(demi.Catfish, demi.WithBlocks(1<<16))
		if err != nil {
			return nil, err
		}
		qd, err := node.Open("/bench/records")
		if err != nil {
			return nil, err
		}
		var cfH metrics.Histogram
		for i := 0; i < nRecords; i++ {
			comp, err := node.BlockingPush(qd, demi.NewSGA(payload))
			if err != nil {
				return nil, err
			}
			cfH.Record(comp.Cost)
		}
		catfishWrites := node.Catfish.Device().Stats().Writes

		// Kernel file path: write + fsync per record through the page
		// cache and journal.
		model := c.Model
		k := kernel.New(&model)
		disk := c.NewDisk(1 << 16)
		k.AttachDisk(disk)
		fd, _, err := k.OpenFile("/bench/records")
		if err != nil {
			return nil, err
		}
		var kH metrics.Histogram
		for i := 0; i < nRecords; i++ {
			wCost, err := k.WriteFile(fd, payload)
			if err != nil {
				return nil, err
			}
			sCost, err := k.Fsync(fd)
			if err != nil {
				return nil, err
			}
			kH.Record(wCost + sCost)
		}
		kernelWrites := disk.Stats().Writes

		o := outcome{
			catfishP50: cfH.Percentile(50),
			kernelP50:  kH.Percentile(50),
			catfishW:   catfishWrites,
			kernelW:    kernelWrites,
		}
		outcomes[size] = o
		tbl.AddRow(size, o.catfishP50, o.kernelP50, metrics.Ratio(o.kernelP50, o.catfishP50),
			o.catfishW, o.kernelW)
	}
	res.Tables = append(res.Tables, tbl)

	// Read-back verification: a record survives a restart, read by a
	// fresh libOS over the same device.
	c := demi.NewCluster(seed + 1)
	disk := c.NewDisk(1 << 16)
	node, err := c.Spawn(demi.Catfish, demi.WithDisk(disk))
	if err != nil {
		return nil, err
	}
	qd, _ := node.Open("/verify")
	want := []byte("verified-record")
	node.BlockingPush(qd, demi.NewSGA(want))
	if node, err = c.Spawn(demi.Catfish, demi.WithDisk(disk)); err != nil {
		return nil, err
	}
	qd, _ = node.Open("/verify")
	comp, err := node.BlockingPop(qd)
	if err != nil {
		return nil, err
	}
	readOK := bytes.Equal(comp.SGA.Bytes(), want)

	for _, size := range sizes {
		o := outcomes[size]
		res.check(fmt.Sprintf("log layout cheaper at %dB", size),
			o.catfishP50 < o.kernelP50, "catfish %v vs kernel %v", o.catfishP50, o.kernelP50)
	}
	res.check("journaling write amplification visible",
		outcomes[4096].kernelW >= 2*nRecords, "kernel device writes=%d for %d records",
		outcomes[4096].kernelW, nRecords)
	res.check("records read back intact", readOK, "payload verified")
	return res, nil
}
