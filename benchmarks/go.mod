module stopandstare/benchmarks

go 1.21

require stopandstare v0.0.0

replace stopandstare => ../
