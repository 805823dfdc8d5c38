module transedge/bench

go 1.24

require transedge v0.0.0

replace transedge => ../
