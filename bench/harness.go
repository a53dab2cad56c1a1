package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"incentivetag"
	"incentivetag/internal/server"
)

// node is one in-process tagserved: the real Service and the real
// internal/server handler behind a loopback TCP listener, with the
// connection timeouts tagserved applies and admission at its zero config.
type node struct {
	svc  *incentivetag.Service
	tap  *tap // nil unless the run is traced
	addr string

	hs     *http.Server
	served chan error
}

// startNode boots a service over ds and serves it on addr ("" picks a
// free loopback port). A traced node gets a tap around its handler, which
// records spans into rec when rec is not nil.
func startNode(ds *incentivetag.Dataset, opts incentivetag.ServiceOptions, cfg server.Config, addr string, traced bool, rec *recorder) (*node, error) {
	svc, err := incentivetag.NewService(ds, opts)
	if err != nil {
		return nil, err
	}
	cfg.Service = svc
	cfg.Strategy = opts.Strategy
	cfg.TagUniverse = ds.Vocab.Size()
	srv, err := server.New(cfg)
	if err != nil {
		svc.Close()
		return nil, err
	}
	n := &node{svc: svc}
	h := srv.Handler()
	if traced {
		n.tap = newTap(h, "server", rec)
		h = n.tap
	}
	n.hs, n.addr, n.served, err = serve(h, addr)
	if err != nil {
		svc.Close()
		return nil, err
	}
	return n, nil
}

// serve runs h on a loopback listener until the returned server is closed.
func serve(h http.Handler, addr string) (*http.Server, string, chan error, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       server.DefaultReadTimeout,
		WriteTimeout:      server.DefaultWriteTimeout,
		IdleTimeout:       server.DefaultIdleTimeout,
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(l) }()
	return hs, l.Addr().String(), served, nil
}

// stopServing closes the listener and every connection and waits for
// Serve to return.
func stopServing(hs *http.Server, served chan error) error {
	err := hs.Close()
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// stop shuts the node down: HTTP first, then the service (which writes
// its final snapshot and releases the WAL).
func (n *node) stop() error {
	err := stopServing(n.hs, n.served)
	if cerr := n.svc.Close(); err == nil {
		err = cerr
	}
	return err
}

// freeAddrs reserves k loopback addresses by binding and releasing them:
// a shard map names its nodes' URLs before any node exists.
func freeAddrs(k int) ([]string, error) {
	addrs := make([]string, k)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs, nil
}

// dialClients opens the load generator's keep-alive connections.
func dialClients(addr string) ([]*httpConn, error) {
	conns := make([]*httpConn, clients)
	for i := range conns {
		c, err := dialHTTP(addr)
		if err != nil {
			closeConns(conns)
			return nil, err
		}
		conns[i] = c
	}
	return conns, nil
}

func closeConns(conns []*httpConn) {
	for _, c := range conns {
		if c != nil {
			c.close()
		}
	}
}

// copyDir clones a durable state directory while its service is open but
// quiet: the image a process killed after its last acknowledgement leaves,
// because every commit is flushed to the OS before it is acknowledged.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// crashImage copies a quiet durable service's directory. The background
// snapshotter may still owe one cycle for the last records; the copy is
// taken once the snapshot count has held still for longer than the
// snapshotter's poll, and retaken if a cycle landed meanwhile.
func crashImage(svc *incentivetag.Service, src, dst string) error {
	for try := 0; try < 20; try++ {
		before := svc.RecoveryStats().SnapshotsTaken
		time.Sleep(400 * time.Millisecond)
		if svc.RecoveryStats().SnapshotsTaken != before {
			continue
		}
		if err := os.RemoveAll(dst); err != nil {
			return err
		}
		err := copyDir(src, dst)
		if svc.RecoveryStats().SnapshotsTaken == before {
			return err
		}
	}
	return fmt.Errorf("snapshotter never went quiet under %s", src)
}

// heapSampler reads the live heap (bytes marked by the last finished GC
// cycle) every 100 ms without stopping the world; a phase's heap_live_mb
// is the median sample, which does not depend on where in a cycle, or in
// the WAL's compaction saw-tooth, the phase happened to end.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				metrics.Read(s)
				if s[0].Value.Kind() == metrics.KindUint64 {
					h.samples = append(h.samples, float64(s[0].Value.Uint64()))
				}
			}
		}
	}()
	return h
}

// medianMB stops the sampler and returns the median sample in MB; with no
// sample (a phase shorter than the tick) it measures once after a GC.
func (h *heapSampler) medianMB() float64 {
	close(h.stop)
	<-h.done
	if len(h.samples) == 0 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc) / 1e6
	}
	return medianF(h.samples) / 1e6
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memDelta is what the process allocated, and how long its GC paused it,
// between two readings.
type memDelta struct {
	mallocs, bytes uint64
	pauseP99       time.Duration
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memBetween(a, b runtime.MemStats) memDelta {
	d := memDelta{mallocs: b.Mallocs - a.Mallocs, bytes: b.TotalAlloc - a.TotalAlloc}
	var pauses []uint64
	for n := a.NumGC; n < b.NumGC && b.NumGC-n <= uint32(len(b.PauseNs)); n++ {
		pauses = append(pauses, b.PauseNs[n%uint32(len(b.PauseNs))])
	}
	if len(pauses) > 0 {
		sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
		d.pauseP99 = time.Duration(pauses[(len(pauses)*99)/100])
	}
	return d
}
