module dfdeques/bench

go 1.23

require dfdeques v0.0.0

replace dfdeques => ../
