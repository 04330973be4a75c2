package core

import (
	"spider/internal/lmm"
	"spider/internal/sim"
	"spider/internal/stripe"
)

// wireStriping installs the striped-download traffic mode: the client
// fetches StripeObjectBytes-sized objects back to back, block-striped
// across every link that is up (the Horde/MAR/PERM integration the paper's
// related-work section anticipates). Completed-object counts and latencies
// land in the Result.
func wireStriping(eng *sim.Engine, objectBytes int64, res *Result, manager *lmm.LMM,
	startFlow func(*lmm.Link, int64, func()) *flow, stopLinkFlows func(*lmm.Link)) {

	links := make(map[int]*lmm.Link) // vif id -> live link
	var ctrl *stripe.Controller
	var objectStart sim.Time

	fetch := func(pathID int, size int64, done func(bool)) {
		l := links[pathID]
		if l == nil || !l.Up() {
			eng.Schedule(0, func() { done(false) })
			return
		}
		// Kill any stale flow left on this link by a superseded fetch.
		stopLinkFlows(l)
		finished := false
		f := startFlow(l, size, func() {
			if !finished {
				finished = true
				done(true)
			}
		})
		if f == nil {
			eng.Schedule(0, func() { done(false) })
		}
	}

	var startObject func()
	startObject = func() {
		objectStart = eng.Now()
		ctrl = stripe.New(eng, objectBytes, fetch)
		ctrl.OnComplete = func() {
			res.StripeObjects++
			res.StripeObjectSecs = append(res.StripeObjectSecs, (eng.Now() - objectStart).Seconds())
			startObject()
		}
		for id := range links {
			ctrl.AddPath(id)
		}
	}
	startObject()

	manager.OnLinkUp = func(l *lmm.Link) {
		res.LinkUps++
		id := l.VIF.ID()
		links[id] = l
		ctrl.AddPath(id)
	}
	manager.OnLinkDown = func(l *lmm.Link) {
		res.LinkDowns++
		id := l.VIF.ID()
		if links[id] == l {
			delete(links, id)
			ctrl.RemovePath(id)
		}
		// The dying link's flow stops making progress; stop its sender and
		// let the controller reassign the block.
		stopLinkFlows(l)
	}
}
