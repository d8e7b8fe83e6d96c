module cronus/bench

go 1.22

require cronus v0.0.0

replace cronus => ../
