//go:build race

package main

// The race detector slows the daemon several-fold; tiny runs then need
// longer to gather the samples their percentiles require.
const raceBuild = true
