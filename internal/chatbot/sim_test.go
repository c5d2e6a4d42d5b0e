package chatbot

import (
	"context"
	"strings"
	"testing"
)

func gpt4() *Sim { return NewSim(GPT4Profile()) }

func complete(t *testing.T, bot Chatbot, req Request) string {
	t.Helper()
	resp, err := bot.Complete(context.Background(), req)
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	return resp.Content
}

func TestSimHeadingLabels(t *testing.T) {
	input := "[1] Privacy Policy\n[2] Information We Collect\n[3]   Cookies and Tracking Technologies\n[4] How We Use Your Information\n[5] Your Rights and Choices\n[6] Children's Privacy\n[7] Changes to this Policy\n[8] Contact Us\n"
	out := complete(t, gpt4(), HeadingLabelsRequest(input))
	lls, err := ParseLineLabels(out)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, out)
	}
	if len(lls) != 8 {
		t.Fatalf("got %d labels, want 8", len(lls))
	}
	byLine := map[int][]string{}
	for _, ll := range lls {
		byLine[ll.Line] = ll.Labels
	}
	has := func(line int, label string) bool {
		for _, l := range byLine[line] {
			if l == label {
				return true
			}
		}
		return false
	}
	if !has(2, "types") {
		t.Errorf("line 2 labels = %v, want types", byLine[2])
	}
	if !has(3, "methods") {
		t.Errorf("line 3 labels = %v, want methods", byLine[3])
	}
	if !has(4, "purposes") {
		t.Errorf("line 4 labels = %v, want purposes", byLine[4])
	}
	if !has(5, "rights") {
		t.Errorf("line 5 labels = %v, want rights", byLine[5])
	}
	if !has(6, "audiences") {
		t.Errorf("line 6 labels = %v, want audiences", byLine[6])
	}
	if !has(7, "changes") {
		t.Errorf("line 7 labels = %v, want changes", byLine[7])
	}
	if !has(8, "other") {
		t.Errorf("line 8 labels = %v, want other", byLine[8])
	}
}

func TestSimExtractTypes(t *testing.T) {
	input := "[1] We collect your email address, mailing address and phone number.\n[2] We also gather browsing history and cookies.\n"
	out := complete(t, gpt4(), ExtractTypesRequest(input, 3))
	es, err := ParseExtractions(out)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, out)
	}
	found := map[string]int{}
	for _, e := range es {
		found[strings.ToLower(e.Text)] = e.Line
	}
	for _, want := range []string{"email address", "mailing address", "phone number", "browsing history", "cookies"} {
		if _, ok := found[want]; !ok {
			t.Errorf("missing extraction %q (got %v)", want, found)
		}
	}
	if found["email address"] != 1 || found["cookies"] != 2 {
		t.Errorf("wrong line numbers: %v", found)
	}
}

func TestSimExtractTypesSkipsNegated(t *testing.T) {
	input := "[1] We do not collect biometric data or social security numbers.\n[2] We collect your email address.\n"
	out := complete(t, gpt4(), ExtractTypesRequest(input, 3))
	es, err := ParseExtractions(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range es {
		low := strings.ToLower(e.Text)
		if strings.Contains(low, "biometric") || strings.Contains(low, "social security") {
			t.Errorf("GPT-4 profile extracted negated mention %q", e.Text)
		}
	}
	if len(es) == 0 {
		t.Error("positive mention also dropped")
	}
}

func TestSimLlamaExtractsNegated(t *testing.T) {
	// §6: Llama-3.1 tends to extract data types in negated contexts.
	input := "[1] This privacy notice does not apply to biometric data.\n"
	llama := NewSim(Llama31Profile())
	out := complete(t, llama, ExtractTypesRequest(input, 3))
	es, err := ParseExtractions(out)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range es {
		if strings.Contains(strings.ToLower(e.Text), "biometric") {
			found = true
		}
	}
	if !found {
		t.Error("llama profile should extract the negated biometric mention (NegationErrorRate=0.85)")
	}
}

func TestSimGPT35VendorConfusion(t *testing.T) {
	// §6: GPT-3.5 mistakes ActiveCampaign for a data type.
	input := "[1] We use ActiveCampaign to manage our marketing campaigns and collect engagement data.\n"
	gpt35 := NewSim(GPT35Profile())
	out := complete(t, gpt35, ExtractTypesRequest(input, 3))
	es, err := ParseExtractions(out)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range es {
		if strings.EqualFold(e.Text, "ActiveCampaign") {
			found = true
		}
	}
	if !found {
		t.Errorf("gpt-3.5 profile should extract the vendor name; got %+v", es)
	}
	// GPT-4 must not.
	out4 := complete(t, gpt4(), ExtractTypesRequest(input, 3))
	es4, _ := ParseExtractions(out4)
	for _, e := range es4 {
		if strings.EqualFold(e.Text, "ActiveCampaign") {
			t.Error("gpt-4 profile extracted the vendor name")
		}
	}
}

func TestSimZeroShotNovelPhrase(t *testing.T) {
	input := "[1] We collect pet adoption records when you register a companion animal.\n"
	out := complete(t, gpt4(), ExtractTypesRequest(input, 3))
	es, err := ParseExtractions(out)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range es {
		if strings.Contains(strings.ToLower(e.Text), "pet adoption record") {
			found = true
		}
	}
	if !found {
		t.Errorf("zero-shot phrase not extracted: %+v", es)
	}
}

func TestSimNormalizeTypes(t *testing.T) {
	out := complete(t, gpt4(), NormalizeTypesRequest([]string{"mailing address", "e-mail address", "gps coordinates"}, 3))
	ns, err := ParseNormalizations(out)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, out)
	}
	if len(ns) != 3 {
		t.Fatalf("got %d normalizations", len(ns))
	}
	if ns[0].Descriptor != "postal address" || ns[0].Category != "Contact info" {
		t.Errorf("mailing address → %+v", ns[0])
	}
	if ns[1].Descriptor != "email address" {
		t.Errorf("e-mail address → %+v", ns[1])
	}
	if ns[2].Descriptor != "gps location" || ns[2].Meta != "Physical behavior" {
		t.Errorf("gps coordinates → %+v", ns[2])
	}
}

func TestSimExtractAndNormalizePurposes(t *testing.T) {
	input := "[1] We use your information to prevent fraud, personalize your experience, and send you marketing communications.\n"
	out := complete(t, gpt4(), ExtractPurposesRequest(input, 3))
	es, err := ParseExtractions(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) < 3 {
		t.Fatalf("got %d purpose extractions: %+v", len(es), es)
	}
	var mentions []string
	for _, e := range es {
		mentions = append(mentions, e.Text)
	}
	nout := complete(t, gpt4(), NormalizePurposesRequest(mentions, 3))
	ns, err := ParseNormalizations(nout)
	if err != nil {
		t.Fatal(err)
	}
	cats := map[string]bool{}
	for _, n := range ns {
		cats[n.Category] = true
	}
	for _, want := range []string{"Security", "User experience", "Advertising & sales"} {
		if !cats[want] {
			t.Errorf("missing category %q in %+v", want, ns)
		}
	}
}

func TestSimHandlingLabels(t *testing.T) {
	input := "[1] We retain your personal information for the period you are actively using our services plus six (6) years.\n" +
		"[2] We retain data only as long as necessary for our business purposes.\n" +
		"[3] Access to personal data is restricted to employees on a need-to-know basis.\n" +
		"[4] We use Secure Socket Layer (SSL) encryption technology for payment transactions.\n"
	out := complete(t, gpt4(), HandlingLabelsRequest(input))
	ms, err := ParseLabeledMentions(out)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, out)
	}
	byLabel := map[string]LabeledMention{}
	for _, m := range ms {
		byLabel[m.Label] = m
	}
	if m, ok := byLabel["Stated"]; !ok || m.Line != 1 || !strings.Contains(m.Text, "six (6) years") {
		t.Errorf("Stated: %+v (ok=%v)", m, ok)
	}
	if m, ok := byLabel["Limited"]; !ok || m.Line != 2 {
		t.Errorf("Limited: %+v (ok=%v)", m, ok)
	}
	if m, ok := byLabel["Access limit"]; !ok || m.Line != 3 {
		t.Errorf("Access limit: %+v (ok=%v)", m, ok)
	}
	if m, ok := byLabel["Secure transfer"]; !ok || m.Line != 4 {
		t.Errorf("Secure transfer: %+v (ok=%v)", m, ok)
	}
}

func TestSimRightsLabels(t *testing.T) {
	input := "[1] You may opt out at any time by clicking the unsubscribe link at the bottom of our emails.\n" +
		"[2] You may request that we delete all of your personal information from our servers.\n" +
		"[3] You can change your preferences through your account settings.\n" +
		"[4] If you do not agree with this policy, please do not use our services.\n"
	out := complete(t, gpt4(), RightsLabelsRequest(input))
	ms, err := ParseLabeledMentions(out)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]int{}
	for _, m := range ms {
		byLabel[m.Label] = m.Line
	}
	for label, line := range map[string]int{
		"Opt-out via link": 1,
		"Full delete":      2,
		"Privacy settings": 3,
		"Do not use":       4,
	} {
		if byLabel[label] != line {
			t.Errorf("%s on line %d, want %d (all: %v)", label, byLabel[label], line, byLabel)
		}
	}
}

func TestSimSegmentTextFallback(t *testing.T) {
	input := "[1] ACME Privacy Policy.\n[2] We collect your email address and phone number.\n[3] We use data for fraud prevention.\n[4] You may opt out by contacting us at privacy@acme.com.\n"
	out := complete(t, gpt4(), SegmentTextRequest(input))
	lls, err := ParseLineLabels(out)
	if err != nil {
		t.Fatal(err)
	}
	labelOf := map[int][]string{}
	for _, ll := range lls {
		labelOf[ll.Line] = ll.Labels
	}
	contains := func(line int, want string) bool {
		for _, l := range labelOf[line] {
			if l == want {
				return true
			}
		}
		return false
	}
	if !contains(2, "types") {
		t.Errorf("line 2 = %v, want types", labelOf[2])
	}
	if !contains(3, "purposes") {
		t.Errorf("line 3 = %v, want purposes", labelOf[3])
	}
	if !contains(4, "rights") {
		t.Errorf("line 4 = %v, want rights", labelOf[4])
	}
}

func TestSimDeterminism(t *testing.T) {
	input := "[1] We collect your email address and device identifiers for analytics.\n"
	req := ExtractTypesRequest(input, 3)
	a := complete(t, NewSim(Llama31Profile()), req)
	b := complete(t, NewSim(Llama31Profile()), req)
	if a != b {
		t.Errorf("sim not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestSimUnknownTask(t *testing.T) {
	_, err := gpt4().Complete(context.Background(), Request{Task: "nonsense", Messages: []Message{{Role: RoleUser, Content: "x"}}})
	if err == nil {
		t.Error("unknown task should error")
	}
}

func TestSimTaskIDFromPromptFallback(t *testing.T) {
	req := ExtractTypesRequest("[1] We collect cookies.\n", 3)
	req.Task = "" // force dispatch via the prompt marker, like a real LLM
	out := complete(t, gpt4(), req)
	es, err := ParseExtractions(out)
	if err != nil || len(es) == 0 {
		t.Errorf("prompt-marker dispatch failed: %v %v", es, err)
	}
}

func TestSimTokenAccounting(t *testing.T) {
	req := ExtractTypesRequest("[1] We collect cookies.\n", 3)
	resp, err := gpt4().Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Usage.PromptTokens <= 0 || resp.Usage.CompletionTokens <= 0 {
		t.Errorf("usage not accounted: %+v", resp.Usage)
	}
}

func BenchmarkSimExtractTypes(b *testing.B) {
	var sb strings.Builder
	for i := 1; i <= 40; i++ {
		sb.WriteString("[")
		sb.WriteString(strings.Repeat("", 0))
		sb.WriteString(strings.TrimSpace(strings.Join([]string{"[", "]"}, "")))
		sb.WriteString("")
	}
	input := "[1] We collect your email address, postal address, phone number, browsing history, cookies, device identifiers, and gps location for analytics and fraud prevention.\n"
	req := ExtractTypesRequest(strings.Repeat(input, 40), 3)
	bot := gpt4()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bot.Complete(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParseNumberedEdgeCases(t *testing.T) {
	var lines []numLine
	for sc := (numberedLines{rest: "[3] three\nplain line\n[10]   ten  \n\n[x] bad number\n"}); sc.scan(); {
		lines = append(lines, sc.cur)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines: %+v", len(lines), lines)
	}
	if lines[0].n != 3 || lines[0].text != "three" {
		t.Errorf("line 0: %+v", lines[0])
	}
	// Unnumbered lines continue from the previous number.
	if lines[1].n != 4 || lines[1].text != "plain line" {
		t.Errorf("line 1: %+v", lines[1])
	}
	if lines[2].n != 10 || lines[2].text != "ten" {
		t.Errorf("line 2: %+v", lines[2])
	}
	// Unparseable bracket keeps the raw text.
	if lines[3].text != "[x] bad number" {
		t.Errorf("line 3: %+v", lines[3])
	}
}

func TestStatedVerbatimRecoversPunctuation(t *testing.T) {
	line := "We keep records for six (6) years after closure."
	got := statedVerbatim(line, "six 6 years")
	if got != "six (6) years" {
		t.Errorf("statedVerbatim = %q", got)
	}
	// Fallback when words are absent.
	if got := statedVerbatim("nothing here", "six 6 years"); got != "six 6 years" {
		t.Errorf("fallback = %q", got)
	}
}

func TestSloppySpanWidens(t *testing.T) {
	s := NewSim(Llama31Profile())
	line := "We collect your email address today."
	spans := s.typeMatcher.find(line)
	if len(spans) != 1 {
		t.Fatalf("spans: %+v", spans)
	}
	wide := s.sloppySpan(line, tokenize(line), spans[0])
	if !strings.HasSuffix(wide, "email address") {
		t.Errorf("sloppy span %q lost the mention", wide)
	}
	if len(wide) <= len(spans[0].text) {
		t.Errorf("sloppy span %q did not widen %q", wide, spans[0].text)
	}
	// Span at line start cannot widen.
	line2 := "email address is required."
	spans2 := s.typeMatcher.find(line2)
	if got := s.sloppySpan(line2, tokenize(line2), spans2[0]); got != spans2[0].text {
		t.Errorf("start-of-line span changed: %q", got)
	}
}

func TestVerbatimHelper(t *testing.T) {
	if got := verbatim("You may OPT OUT by contacting us", strings.ToLower("You may OPT OUT by contacting us"), "opt out by contacting"); got != "OPT OUT by contacting" {
		t.Errorf("verbatim = %q", got)
	}
	if got := verbatim("no match here", "no match here", "absent cue"); got != "absent cue" {
		t.Errorf("fallback = %q", got)
	}
}
