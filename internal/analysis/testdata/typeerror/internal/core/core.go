// Package core does not type-check. The lint gate must report the type
// error as its one finding rather than run rules over a half-resolved
// module: the wall-clock read below goes unreported.
package core

import "time"

func Stamp() int {
	return time.Now().String()
}
