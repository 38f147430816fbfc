package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostStamp describes the machine a result was measured on.
type hostStamp struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	L2MB       float64 `json:"l2_mb_per_core"`
	L3MB       float64 `json:"l3_mb"`
}

func host() hostStamp {
	return hostStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		L2MB:       cacheMB(2),
		L3MB:       cacheMB(3),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// cacheMB is the size of cpu0's cache of the given level as sysfs
// reports it, in MiB (0 when unknown).
func cacheMB(level int) float64 {
	const dir = "/sys/devices/system/cpu/cpu0/cache/"
	for i := 0; i < 8; i++ {
		idx := dir + "index" + strconv.Itoa(i) + "/"
		lv, err := os.ReadFile(idx + "level")
		if err != nil {
			break
		}
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) {
			continue
		}
		size, err := os.ReadFile(idx + "size")
		if err != nil {
			return 0
		}
		s := strings.TrimSpace(string(size))
		mult := 1.0 / 1024 // sysfs sizes are in KiB ("4096K")
		switch {
		case strings.HasSuffix(s, "K"):
			s = strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			s, mult = strings.TrimSuffix(s, "M"), 1
		}
		n, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0
		}
		return n * mult
	}
	return 0
}

// cpuTimes are the host's cumulative CPU times from /proc/stat, in
// clock ticks: the time stolen by the hypervisor, and the time the
// vCPUs ran or wanted to run (steal included).
type cpuTimes struct {
	steal, busy uint64
}

// readCPU reads the aggregate "cpu" line of /proc/stat (zero elsewhere).
func readCPU() cpuTimes {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal
	for i, f := range fields[1:9] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			t.steal = n
			t.busy += n
		default:
			t.busy += n
		}
	}
	return t
}

// stealShare runs f and returns the share of the vCPUs' wanted time
// that the hypervisor stole meanwhile (0 where /proc/stat is
// unavailable).
func stealShare(f func()) float64 {
	a := readCPU()
	f()
	b := readCPU()
	return ratio(float64(b.steal-a.steal), float64(b.busy-a.busy))
}
