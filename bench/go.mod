module github.com/twolayer/twolayer/bench

go 1.23

require github.com/twolayer/twolayer v0.0.0

replace github.com/twolayer/twolayer => ../
