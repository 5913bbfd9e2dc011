//go:build race

package hydro_test

func init() { raceDetector = true }
