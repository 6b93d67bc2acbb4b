// The benchmark is a module of its own so that it builds from its own
// build file; the module path sits under krad/ so it may import the
// daemon's internal packages, and the replace points at the checkout.
module krad/benchmark

go 1.22

require krad v0.0.0

replace krad => ../
