package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// environment is the block printed with every result so a noisy set of
// runs can be told from a slow program.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	JournalFS  string `json:"journal_fs"`
	// Per repetition, in the order run: the SHA-256 calibration before it
	// and the mean reference chunk time during it (calib.go). Dividing a
	// reported timing by refChunk and multiplying by the chunk time gives back
	// what this machine's clock read.
	CalibMS []float64 `json:"calib_ms"`
	ChunkUS []float64 `json:"chunk_us"`
}

// note records a repetition's machine readings.
func (e *environment) note(res *repResult) {
	e.CalibMS = append(e.CalibMS, res.calibMS)
	e.ChunkUS = append(e.ChunkUS, res.calib.chunkUS())
}

func newEnvironment(workdir string) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		JournalFS:  fsType(workdir),
	}
}

// calibBuf is hashed by calibrate; allocated once so the calibration adds
// no garbage between repetitions.
var calibBuf = make([]byte, 64<<20)

// calibrate times a fixed CPU-bound task — SHA-256 over 64 MiB — and
// returns milliseconds. It runs before each repetition: a repetition that
// reads slow next to a slow calibration was a slow machine, not a slow
// program.
func calibrate() float64 {
	start := time.Now()
	sum := sha256.Sum256(calibBuf)
	calibBuf[0] = sum[0] // keep the hash live
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPUSeconds returns the cumulative CPU seconds the runtime attributes
// to garbage collection.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// heapAfterGC returns HeapAlloc after two collections: the first frees
// garbage, the second frees what the first's finalizers and sweep released.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x2FC12FC1: "zfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}
