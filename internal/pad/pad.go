// Package pad provides zero-padded integer formatting without fmt and
// cache-line padding for striped concurrent structures. It exists because
// entity keys and task names are built once per simulated task, which puts
// their formatting on the hottest allocation path in the tree, and because
// the profiler's event-log stripes are written by concurrent recorders,
// where false sharing between adjacent stripes costs more than the append
// they guard.
package pad

// LineSize is the assumed cache-line size in bytes. 64 is correct for
// every x86-64 part and for the vast majority of arm64 server parts; a
// too-small value costs false sharing, a too-large value costs only a few
// bytes per stripe, so the common value is baked in rather than probed.
const LineSize = 64

// Line is cache-line-sized padding. Embed one after each element of a
// striped array so that stripes hit distinct cache lines:
//
//	type stripe struct {
//		mu sync.Mutex
//		m  map[K]V
//		_  pad.Line
//	}
type Line [LineSize]byte

// Int renders n in decimal, left-padded with zeros to at least width
// digits (wider values keep all their digits; negatives render as 0).
func Int(n, width int) string {
	var buf [20]byte
	return string(AppendInt(buf[:0], n, width))
}

// AppendInt appends Int(n, width) to dst.
func AppendInt(dst []byte, n, width int) []byte {
	var buf [20]byte
	i := len(buf)
	if n < 0 {
		n = 0
	}
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	for len(buf)-i < width {
		i--
		buf[i] = '0'
	}
	return append(dst, buf[i:]...)
}
