// Package live models live 360° video broadcast (§3.4): a broadcaster
// uploads a panoramic stream to a server that re-encodes, packages, and
// disseminates it to viewers. The package reproduces the paper's pilot
// characterization study — platform profiles for Facebook, YouTube and
// Periscope calibrated against Table 2's end-to-end latency
// measurements — and implements the paper's two §3.4.2 proposals:
// spatial fall-back for the constrained uplink and crowd-sourced HMP
// for high-latency viewers.
package live

import (
	"time"

	"sperke/internal/media"
)

// Platform describes one commercial live 360° service as the paper's
// measurements characterize it (§3.4.1): ingest protocol and bitrate,
// server behaviour, and viewer-side delivery.
type Platform struct {
	Name string
	// IngestBitrate is the broadcaster encoder's output rate (fixed —
	// "no rate adaptation is currently used during a live 360° video
	// upload"; quality is fixed or manually set).
	IngestBitrate media.Bitrate
	// UploadQueueCap is how much encoded video (in media seconds) the
	// broadcaster app queues before dropping frames when the uplink
	// cannot keep up. A large cap trades latency for fewer skips.
	UploadQueueCap time.Duration
	// EncodeDelay is the camera + encoder latency before a segment can
	// leave the device.
	EncodeDelay time.Duration
	// ReencodeDelay is the server-side processing time before a received
	// segment is available to viewers (platforms re-encode into multiple
	// qualities).
	ReencodeDelay time.Duration
	// SegmentDur is the packaging granularity: a segment is only
	// available once entirely produced.
	SegmentDur time.Duration
	// PullBased selects the download path: DASH-style MPD polling
	// (Facebook, YouTube) or RTMP push (Periscope).
	PullBased bool
	// PollInterval is the viewer's MPD refresh period (pull only).
	PollInterval time.Duration
	// Prebuffer is how much content the viewer buffers before starting
	// playback.
	Prebuffer time.Duration
	// DownLadder lists the rates the server offers for download
	// adaptation (§3.4.1: 720p/1080p for Facebook, six levels for
	// YouTube). Empty means the source stream is relayed as-is
	// (Periscope).
	DownLadder []media.Bitrate
}

// Platform profiles. The structural facts (protocols, adaptation,
// ladder shapes) come from §3.4.1; the delay constants are calibrated
// so the unconstrained row of Table 2 lands near the paper's 9.2 /
// 12.4 / 22.2 seconds and the constrained rows inflate with the same
// ordering the paper reports.
var (
	// Facebook: RTMP up, DASH down with 720p/1080p; aggressive frame
	// dropping keeps its upload queue short.
	Facebook = Platform{
		Name:           "Facebook",
		IngestBitrate:  2200 * media.Kbps,
		UploadQueueCap: 4 * time.Second,
		EncodeDelay:    500 * time.Millisecond,
		ReencodeDelay:  3 * time.Second,
		SegmentDur:     2 * time.Second,
		PullBased:      true,
		PollInterval:   2 * time.Second,
		Prebuffer:      4 * time.Second,
		DownLadder:     []media.Bitrate{1500 * media.Kbps, 2500 * media.Kbps}, // 720p, 1080p
	}
	// periscope: RTMP up and RTMP push down, no download adaptation,
	// generous buffering on both sides.
	periscope = Platform{
		Name:           "Periscope",
		IngestBitrate:  2600 * media.Kbps,
		UploadQueueCap: 8 * time.Second,
		EncodeDelay:    500 * time.Millisecond,
		ReencodeDelay:  5500 * time.Millisecond,
		SegmentDur:     3 * time.Second,
		PullBased:      false,
		Prebuffer:      6 * time.Second,
	}
	// youtube: RTMP up at a gentler rate, DASH down with six levels
	// (144p..1080p), big segments and deep player buffer.
	youtube = Platform{
		Name:           "YouTube",
		IngestBitrate:  1800 * media.Kbps,
		UploadQueueCap: 2500 * time.Millisecond,
		EncodeDelay:    500 * time.Millisecond,
		ReencodeDelay:  6 * time.Second,
		SegmentDur:     5 * time.Second,
		PullBased:      true,
		PollInterval:   5 * time.Second,
		Prebuffer:      12 * time.Second,
		DownLadder: []media.Bitrate{
			200 * media.Kbps, 400 * media.Kbps, 750 * media.Kbps,
			1200 * media.Kbps, 2000 * media.Kbps, 3500 * media.Kbps,
		},
	}
)

// SperkeLive is the §3.4.2 endgame profile: the broadcaster uploads
// SVC layers, so the server only repackages instead of re-encoding
// (§3.4.2: "there is no need for the server to perform re-encoding
// because the client player can directly assemble individual layers");
// segments are short, the player buffer shallow, and viewers fetch
// FoV-guided — the download ladder carries only the ~45% FoV+OOS share
// of each panoramic rate.
var SperkeLive = Platform{
	Name:           "Sperke-live",
	IngestBitrate:  2000 * media.Kbps,
	UploadQueueCap: 3 * time.Second,
	EncodeDelay:    300 * time.Millisecond,
	ReencodeDelay:  300 * time.Millisecond, // layer repackaging only
	SegmentDur:     time.Second,
	PullBased:      true,
	PollInterval:   time.Second,
	Prebuffer:      2 * time.Second,
	DownLadder: []media.Bitrate{
		// LiveLadder × 0.45 (FoV + one OOS ring of a 4×6 grid).
		90 * media.Kbps, 180 * media.Kbps, 338 * media.Kbps,
		540 * media.Kbps, 900 * media.Kbps, 1575 * media.Kbps,
	},
}

// Platforms lists the three profiled services in Table 2's column
// order.
var Platforms = []Platform{Facebook, periscope, youtube}

// Condition is one row of Table 2: upload and download bandwidth caps
// in bits/s (0 = unlimited).
type Condition struct {
	Name     string
	Up, Down float64
}

// Table2Conditions are the five measured rows.
var Table2Conditions = []Condition{
	{Name: "No limit / No limit", Up: 0, Down: 0},
	{Name: "2Mbps / No limit", Up: 2e6, Down: 0},
	{Name: "No limit / 2Mbps", Up: 0, Down: 2e6},
	{Name: "0.5Mbps / No limit", Up: 0.5e6, Down: 0},
	{Name: "No limit / 0.5Mbps", Up: 0, Down: 0.5e6},
}
