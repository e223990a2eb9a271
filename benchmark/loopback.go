package main

import (
	"os"
	"os/exec"
	"strings"
	"syscall"
	"unsafe"
)

// Every trial process gets a network namespace of its own, with reno as its
// congestion control, because the loopback connections of this sandbox run
// bbr (net.ipv4.tcp_congestion_control), and bbr paces loopback sends with
// an hrtimer in one of two regimes that chance picks when a connection
// starts and that then holds: identical trials of churn-rw-64k ran at
// 18.5 k ops/s with 20 µs of system CPU per op and one HRTIMER softirq, or
// at 14.5 k with 35 µs and 42 000 of them. With reno on every socket all
// trials are of the first kind. The sockets are made inside netblock and
// fleet, out of the benchmark's reach, and a namespace is the only place
// an unprivileged process can set their default. Reno and the kernel's
// usual cubic behave alike on a loss-free loopback; neither paces.
const congestionFile = "/proc/sys/net/ipv4/tcp_congestion_control"

// privateNet makes cmd start in new user and network namespaces, as root of
// both, so that it may configure the latter whatever it may do outside.
func privateNet(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{
		Cloneflags:  syscall.CLONE_NEWUSER | syscall.CLONE_NEWNET,
		UidMappings: []syscall.SysProcIDMap{{ContainerID: 0, HostID: os.Geteuid(), Size: 1}},
		GidMappings: []syscall.SysProcIDMap{{ContainerID: 0, HostID: os.Getegid(), Size: 1}},
	}
}

// ifreq is struct ifreq as SIOC[GS]IFFLAGS use it.
type ifreq struct {
	name  [syscall.IFNAMSIZ]byte
	flags uint16
	_     [22]byte
}

// setupLoopback, in a trial process, finishes what privateNet began: a new
// network namespace has its loopback interface down, so bring it up and make
// reno the default of the sockets to come. Where lo is already up the process
// was started in somebody else's namespace (by hand with -trial, or because
// namespaces are not to be had here) and nothing is changed. It returns the
// congestion control the trial's sockets will get, for the env block.
func setupLoopback() (string, error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM, 0)
	if err != nil {
		return "", err
	}
	defer syscall.Close(fd)
	ifr := ifreq{}
	copy(ifr.name[:], "lo")
	ioctl := func(req uintptr) error {
		if _, _, errno := syscall.Syscall(syscall.SYS_IOCTL, uintptr(fd), req, uintptr(unsafe.Pointer(&ifr))); errno != 0 {
			return errno
		}
		return nil
	}
	if err := ioctl(syscall.SIOCGIFFLAGS); err != nil {
		return "", err
	}
	if ifr.flags&syscall.IFF_UP == 0 {
		ifr.flags |= syscall.IFF_UP
		if err := ioctl(syscall.SIOCSIFFLAGS); err != nil {
			return "", err
		}
		if err := os.WriteFile(congestionFile, []byte("reno"), 0o644); err != nil {
			return "", err
		}
	}
	cc, err := os.ReadFile(congestionFile)
	return strings.TrimSpace(string(cc)), err
}
