module gridbw/bench

go 1.22

require gridbw v0.0.0

replace gridbw => ../
