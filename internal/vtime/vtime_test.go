package vtime

import (
	"testing"
	"time"
)

func TestAddSub(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(5 * Millisecond)
	if got, want := t1, Time(5_000_000); got != want {
		t.Fatalf("Add = %v, want %v", got, want)
	}
	if got, want := t1.Sub(t0), 5*Millisecond; got != want {
		t.Fatalf("Sub = %v, want %v", got, want)
	}
}

func TestMax(t *testing.T) {
	tests := []struct {
		a, b, max Time
	}{
		{0, 0, 0},
		{1, 2, 2},
		{7, 3, 7},
		{-1, 1, 1},
	}
	for _, tt := range tests {
		if got := Max(tt.a, tt.b); got != tt.max {
			t.Errorf("Max(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.max)
		}
	}
}

func TestTransferTime(t *testing.T) {
	tests := []struct {
		name string
		n    int64
		rate float64
		want Duration
	}{
		{"1MB at 1MB/s", 1e6, 1e6, Second},
		{"zero bytes", 0, 1e6, 0},
		{"zero rate means free", 1e6, 0, 0},
		{"negative rate means free", 1e6, -5, 0},
		{"half rate", 5e5, 1e6, 500 * Millisecond},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := TransferTime(tt.n, tt.rate); got != tt.want {
				t.Fatalf("TransferTime(%d, %v) = %v, want %v", tt.n, tt.rate, got, tt.want)
			}
		})
	}
}

func TestRate(t *testing.T) {
	if got := MBPerSec(2e6, 2*Second); got != 1 {
		t.Fatalf("MBPerSec = %v, want 1", got)
	}
	if got := MBPerSec(2e6, 0); got != 0 {
		t.Fatalf("MBPerSec with zero elapsed = %v, want 0", got)
	}
	if got := MBPerSec(100e6, Second); got != 100 {
		t.Fatalf("MBPerSec = %v, want 100", got)
	}
}

func TestStdConversion(t *testing.T) {
	d := FromStd(3 * time.Millisecond)
	if d != 3*Millisecond {
		t.Fatalf("FromStd = %v", d)
	}
	if time.Duration(d) != 3*time.Millisecond {
		t.Fatalf("time.Duration = %v", time.Duration(d))
	}
	if d.Seconds() != 0.003 {
		t.Fatalf("Seconds = %v", d.Seconds())
	}
}

func TestStringFormats(t *testing.T) {
	if got := Time(5 * Millisecond).String(); got != "t+5ms" {
		t.Fatalf("Time.String = %q", got)
	}
	if got := (3 * Second).String(); got != "3s" {
		t.Fatalf("Duration.String = %q", got)
	}
	if Time(2*Second).Seconds() != 2 {
		t.Fatal("Time.Seconds wrong")
	}
	if TransferTime(-5, 100) != 0 {
		t.Fatal("negative bytes should transfer free")
	}
}
