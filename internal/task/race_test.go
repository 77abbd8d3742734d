//go:build race

package task

func init() { raceBuild = true }
