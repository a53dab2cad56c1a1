module incentivetag/bench

go 1.23

require incentivetag v0.0.0

replace incentivetag => ../
